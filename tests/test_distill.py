import numpy as np
import pytest

from diffdistill.cli import _fd_grad
from diffdistill.diffusion import DiffusionParams, build_affinity_batch, diffuse_closed_form, transition_matrix
from diffdistill.distill import dynamic_weight, psd_grad, psd_loss, soften
from diffdistill.embeddings import EmbeddingBatch, cosine_similarity_matrix, normalize_rows


def pair_attention_factor(zi, zj) -> float:
    """||z_j - (z_i . z_j) z_i|| for unit vectors; equals sqrt(1 - (z_i . z_j)^2).

    Near 0 for aligned (easy) pairs, near 1 for barely-similar (hard) pairs, so
    hard pairs dominate the per-pair gradient magnitude |P_ij - T_ij|.
    """
    return float(np.linalg.norm(zj - float(zi @ zj) * zi))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_equal_entries_uniform():
    for tau in (0.3, 1.0, 7.0):
        P = soften(np.full((2, 5), 1.7), tau).probs
        np.testing.assert_allclose(P, np.full((2, 5), 0.2), atol=1e-15)


def test_softmax_large_temperature_flattens():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 6))
    P = soften(M, 1e6).probs
    np.testing.assert_allclose(P, np.full((4, 6), 1 / 6), atol=1e-6)


def test_softmax_two_entry_row_known_value():
    P = soften(np.array([[1.0, 0.0]]), 1.0).probs
    e = np.e
    np.testing.assert_allclose(P, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)
    assert P[0, 0] == pytest.approx(0.7311, abs=5e-5)
    assert P[0, 1] == pytest.approx(0.2689, abs=5e-5)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(1)
    P = soften(rng.standard_normal((8, 8)) * 30, 0.5).probs
    np.testing.assert_allclose(P.sum(axis=1), np.ones(8), atol=1e-9)
    assert P.min() > 0


# ---------------------------------------------------------------------------
# losses


def test_psd_loss_zero_for_identical_inputs():
    rng = np.random.default_rng(2)
    D = rng.standard_normal((5, 5))
    assert psd_loss(D, D, tau=0.7) == pytest.approx(0.0, abs=1e-15)


def test_psd_loss_flat_at_huge_temperature():
    rng = np.random.default_rng(3)
    target = rng.standard_normal((6, 6))
    student = rng.standard_normal((6, 6))
    assert psd_loss(target, student, tau=1e6) < 1e-10


def test_psd_loss_matches_direct_formula_oracle():
    rng = np.random.default_rng(4)
    target = rng.standard_normal((3, 3))
    student = rng.standard_normal((3, 3))
    tau = 0.8
    loss = psd_loss(target, student, tau)
    oracle = 0.0
    for i in range(3):
        p = np.exp(target[i] / tau) / np.exp(target[i] / tau).sum()
        q = np.exp(student[i] / tau) / np.exp(student[i] / tau).sum()
        oracle += float(np.sum(p * np.log(p / q)))
    oracle /= 3
    assert loss == pytest.approx(oracle, abs=1e-12)


def test_psd_loss_nonnegative_zero_iff_matching_rows():
    rng = np.random.default_rng(5)
    for _ in range(20):
        target = rng.standard_normal((4, 4))
        student = rng.standard_normal((4, 4))
        loss = psd_loss(target, student, tau=1.0)
        assert loss >= 0.0
        if loss < 1e-15:
            np.testing.assert_allclose(
                soften(target, 1.0).probs, soften(student, 1.0).probs, atol=1e-7
            )
    # shifting a row by a constant leaves its softmax unchanged -> loss 0
    target = rng.standard_normal((4, 4))
    shifted = target + rng.standard_normal((4, 1))
    assert psd_loss(target, shifted, tau=1.0) == pytest.approx(0.0, abs=1e-12)


def test_obdsd_loss_reduces_to_psd_at_tiny_omega():
    rng = np.random.default_rng(6)
    z = normalize_rows(rng.standard_normal((6, 4)))
    batch = EmbeddingBatch(z, np.zeros(6, dtype=np.int64))
    D = cosine_similarity_matrix(batch)
    S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), DiffusionParams()))
    A = diffuse_closed_form(S, D, omega=1e-9)
    student = cosine_similarity_matrix(
        EmbeddingBatch(normalize_rows(rng.standard_normal((6, 4))), np.zeros(6, dtype=np.int64))
    )
    assert psd_loss(A, student, tau=1.0) == pytest.approx(
        psd_loss(D, student, tau=1.0), abs=1e-7
    )


def test_obdsd_pipeline_loss_matches_oracle_on_six_points():
    rng = np.random.default_rng(7)
    z = normalize_rows(rng.standard_normal((6, 5)))
    batch = EmbeddingBatch(z, np.array([0, 0, 1, 1, 2, 2]))
    D = cosine_similarity_matrix(batch)
    S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), DiffusionParams()))
    A = diffuse_closed_form(S, D, omega=0.5)
    student = cosine_similarity_matrix(
        EmbeddingBatch(normalize_rows(rng.standard_normal((6, 5))), batch.labels)
    )
    tau = 1.3
    loss = psd_loss(A, student, tau)
    assert np.isfinite(loss) and loss >= 0
    oracle = 0.0
    for i in range(6):
        p = np.exp((A[i] - A[i].max()) / tau)
        p /= p.sum()
        q = np.exp((student[i] - student[i].max()) / tau)
        q /= q.sum()
        oracle += float(np.sum(p * np.log(p / q)))
    assert loss == pytest.approx(oracle / 6, abs=1e-12)


# ---------------------------------------------------------------------------
# dynamic weight


def test_dynamic_weight_zero_at_epoch_zero():
    assert dynamic_weight(tau=2.0, weight=10.0, epoch=0, total_epochs=50, dynamic=True) == 0.0


def test_dynamic_weight_full_at_final_epoch():
    weight = dynamic_weight(tau=1.0, weight=3.5, epoch=50, total_epochs=50, dynamic=True)
    assert weight == pytest.approx(3.5)


def test_dynamic_weight_midpoint_paper_values():
    weight = dynamic_weight(tau=1.0, weight=1000.0, epoch=75, total_epochs=150, dynamic=True)
    assert weight == pytest.approx(500.0)


def test_static_weight_ignores_epoch():
    for epoch in (0, 10, 99):
        weight = dynamic_weight(tau=2.0, weight=5.0, epoch=epoch, total_epochs=100, dynamic=False)
        assert weight == pytest.approx(20.0)


def test_dynamic_weight_monotone_and_linear_in_weight():
    values = [dynamic_weight(tau=1.5, weight=2.0, epoch=t, total_epochs=20) for t in range(21)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    doubled = dynamic_weight(tau=1.5, weight=4.0, epoch=7, total_epochs=20)
    assert doubled == pytest.approx(2 * values[7])


# ---------------------------------------------------------------------------
# analytic gradient


def test_grad_zero_when_target_is_own_soft_rows():
    rng = np.random.default_rng(8)
    V = rng.standard_normal((5, 4))
    D = cosine_similarity_matrix(normalize_rows(V))
    grad = psd_grad(V, soften(D, 1.0), 1.0)
    assert np.abs(grad).max() <= 1e-12


def test_attention_factor_formula_exact():
    rng = np.random.default_rng(9)
    for _ in range(50):
        z = normalize_rows(rng.standard_normal((2, 6)))
        zi, zj = z
        cos = float(zi @ zj)
        assert pair_attention_factor(zi, zj) == pytest.approx(
            np.sqrt(1.0 - cos**2), abs=1e-12
        )


def test_easy_positive_attention_vanishes():
    base = np.array([1.0, 0.0, 0.0])
    nearly = normalize_rows(np.array([[1.0, 1e-4, 0.0]]))[0]
    assert pair_attention_factor(base, nearly) < 2e-4


def test_hard_positive_per_pair_magnitude_tracks_difference():
    # 0 < z_i.z_j << 1: attention factor ~ 1, so the pair's gradient magnitude
    # is ~ |P_ij - T_ij|
    zi = np.array([1.0, 0.0])
    zj = normalize_rows(np.array([[0.05, 1.0]]))[0]
    cos = float(zi @ zj)
    assert 0 < cos < 0.1
    factor = pair_attention_factor(zi, zj)
    assert factor == pytest.approx(1.0, abs=5e-3)
    p_minus_t = 0.123
    assert factor * abs(p_minus_t) == pytest.approx(abs(p_minus_t), rel=5e-3)


def test_grad_matches_finite_differences_keystone():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        tau = float(rng.choice([0.5, 1.0, 2.0]))
        V = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 2.0))
        target = rng.standard_normal((n, n))
        target = (target + target.T) / 2
        analytic = psd_grad(V, soften(target, tau), tau)

        def loss_of(Vx, target=target, tau=tau):
            return psd_loss(target, cosine_similarity_matrix(normalize_rows(Vx)), tau)

        fd = _fd_grad(loss_of, V, 1e-6)
        rel = np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel < 1e-5, (n, d, tau, rel)
        checked += 1
    assert checked >= 50


def test_grad_includes_cross_anchor_terms():
    # dropping the G^T accumulation must break the FD match
    rng = np.random.default_rng(11)
    V = rng.standard_normal((5, 4))
    target = rng.standard_normal((5, 5))
    tau = 1.0
    T = soften(target, tau).probs
    Z = normalize_rows(V)
    P = soften(cosine_similarity_matrix(Z), tau).probs
    G = (P - T) / (5 * tau)
    own_anchor_only = G @ Z
    radial = np.sum(own_anchor_only * Z, axis=1, keepdims=True)
    truncated = (own_anchor_only - radial * Z) / np.linalg.norm(V, axis=1)[:, None]

    def loss_of(Vx):
        return psd_loss(target, cosine_similarity_matrix(normalize_rows(Vx)), tau)

    fd = _fd_grad(loss_of, V, 1e-6)
    full = psd_grad(V, T, tau)
    assert np.abs(full - fd).max() / np.abs(fd).max() < 1e-5
    assert np.abs(truncated - fd).max() / np.abs(fd).max() > 1e-2


def test_grad_rows_tangent_to_student_directions():
    rng = np.random.default_rng(12)
    for _ in range(20):
        V = rng.standard_normal((6, 5)) * float(rng.uniform(0.5, 3.0))
        target = rng.standard_normal((6, 6))
        grad = psd_grad(V, soften(target, 1.0), 1.0)
        Z = normalize_rows(V)
        assert np.abs(np.sum(grad * Z, axis=1)).max() < 1e-10
