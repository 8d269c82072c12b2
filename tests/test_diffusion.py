import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdistill import diffusion, embeddings

from diffdistill.cli import _fd_grad
from diffdistill.diffusion import (
    DiffusionParams,
    build_affinity_batch,
    build_affinity_knn,
    diffuse_closed_form,
    diffuse_iterative,
    refine_global,
    refinement_objective,
    transition_matrix,
)
from diffdistill.embeddings import (
    EmbeddingBatch,
    FactoredSimilarity,
    cosine_similarity_matrix,
    normalize_rows,
)
from diffdistill.errors import DegenerateGraph, NotConverged

PARAMS = DiffusionParams()


def dense_weights(graph):
    """The n x n W of a padded (mutual-kNN) graph."""
    n = graph.W.shape[0]
    W = np.zeros((n, n))
    W[np.arange(n)[:, None], graph.neighbors] = graph.W
    return W


def unit_batch(rng, n, d, labels=None):
    z = normalize_rows(rng.standard_normal((n, d)))
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    return EmbeddingBatch(z, labels)


# ---------------------------------------------------------------------------
# affinity construction


def test_affinity_identical_pair():
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    graph = build_affinity_batch(cosine_similarity_matrix(z), PARAMS)
    np.testing.assert_allclose(graph.W, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(graph.degrees, [1.0, 1.0], atol=1e-15)
    assert graph.degenerate_rows == ()


def test_affinity_orthogonal_pair_reports_degenerate_and_floors():
    graph = build_affinity_batch(cosine_similarity_matrix(np.eye(2)), PARAMS)
    np.testing.assert_array_equal(graph.W, np.zeros((2, 2)))
    np.testing.assert_allclose(graph.degrees, [PARAMS.degree_epsilon] * 2)
    assert graph.degenerate_rows == (0, 1)


def test_affinity_two_clusters_cross_entries_clamp():
    # two 3-point clusters around +e1 and -e1: cross-cluster cosine < 0
    rng = np.random.default_rng(5)
    pos = normalize_rows(np.array([1.0, 0.0, 0.0]) + 0.05 * rng.standard_normal((3, 3)))
    neg = normalize_rows(np.array([-1.0, 0.0, 0.0]) + 0.05 * rng.standard_normal((3, 3)))
    batch = EmbeddingBatch(np.vstack([pos, neg]), np.array([0, 0, 0, 1, 1, 1]))
    graph = build_affinity_batch(cosine_similarity_matrix(batch), PARAMS)
    within = np.concatenate([graph.W[:3, :3][~np.eye(3, dtype=bool)],
                             graph.W[3:, 3:][~np.eye(3, dtype=bool)]])
    cross = graph.W[:3, 3:].ravel()
    assert within.min() > 0.9
    np.testing.assert_array_equal(cross, np.zeros(9))
    assert np.all(graph.W >= 0)
    assert np.all(np.diag(graph.W) == 0)


def test_knn_saturated_equals_batch_affinity():
    rng = np.random.default_rng(6)
    # cluster tightly so every similarity is positive
    z = normalize_rows(np.ones((5, 4)) + 0.1 * rng.standard_normal((5, 4)))
    batch = EmbeddingBatch(z, np.zeros(5, dtype=np.int64))
    full = build_affinity_batch(cosine_similarity_matrix(batch), PARAMS)
    knn = build_affinity_knn(cosine_similarity_matrix(batch), k=4, params=PARAMS)
    np.testing.assert_allclose(dense_weights(knn), full.W, atol=1e-15)


def test_knn_far_clusters_have_no_cross_edges():
    rng = np.random.default_rng(7)
    a = normalize_rows(np.array([1.0, 0.0, 0.0, 0.0]) + 0.02 * rng.standard_normal((3, 4)))
    b = normalize_rows(np.array([0.0, 0.0, 0.0, 1.0]) + 0.02 * rng.standard_normal((3, 4)))
    batch = EmbeddingBatch(np.vstack([a, b]), np.array([0, 0, 0, 1, 1, 1]))
    graph = build_affinity_knn(cosine_similarity_matrix(batch), k=2, params=PARAMS)
    W = dense_weights(graph)
    # oracle: mutual-kNN membership by brute force
    sims = cosine_similarity_matrix(batch)
    for i in range(6):
        order = sorted((j for j in range(6) if j != i), key=lambda j: (-sims[i, j], j))
        top = set(order[:2])
        for j in range(6):
            mutual = j in top and i in set(
                sorted((t for t in range(6) if t != j), key=lambda t: (-sims[j, t], t))[:2]
            )
            expected = max(sims[i, j], 0.0) if (mutual and i != j) else 0.0
            assert W[i, j] == pytest.approx(expected, abs=1e-15)
    np.testing.assert_array_equal(W[:3, 3:], np.zeros((3, 3)))


def test_knn_k_bounds_enforced():
    rng = np.random.default_rng(8)
    batch = unit_batch(rng, 4, 3)
    with pytest.raises(ValueError):
        build_affinity_knn(cosine_similarity_matrix(batch), k=4, params=PARAMS)
    with pytest.raises(ValueError):
        build_affinity_knn(cosine_similarity_matrix(batch), k=0, params=PARAMS)


# ---------------------------------------------------------------------------
# transition matrix


def test_transition_unit_degrees_identity_scaling():
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    graph = build_affinity_batch(cosine_similarity_matrix(z), PARAMS)
    np.testing.assert_allclose(transition_matrix(graph), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_transition_scales_by_degree():
    from diffdistill.diffusion import AffinityGraph

    W = np.array([[0.0, 2.0], [2.0, 0.0]])
    graph = AffinityGraph(W=W, degrees=W.sum(axis=1))
    np.testing.assert_allclose(transition_matrix(graph), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_transition_matches_entrywise_oracle():
    from diffdistill.diffusion import AffinityGraph

    rng = np.random.default_rng(9)
    W = rng.uniform(0.0, 1.0, size=(6, 6))
    W = (W + W.T) / 2
    np.fill_diagonal(W, 0.0)
    deg = W.sum(axis=1)
    S = transition_matrix(AffinityGraph(W=W, degrees=deg))
    for i in range(6):
        for j in range(6):
            assert abs(S[i, j] - W[i, j] / np.sqrt(deg[i] * deg[j])) < 1e-12
    assert np.all(np.abs(S - S.T) < 1e-9)


def test_transition_rejects_nonpositive_degree():
    from diffdistill.diffusion import AffinityGraph

    with pytest.raises(DegenerateGraph):
        transition_matrix(AffinityGraph(W=np.zeros((2, 2)), degrees=np.zeros(2)))


# ---------------------------------------------------------------------------
# diffusion solvers


def test_closed_form_tiny_omega_recovers_input():
    rng = np.random.default_rng(10)
    batch = unit_batch(rng, 6, 4)
    D = cosine_similarity_matrix(batch)
    S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), PARAMS))
    A = diffuse_closed_form(S, D, omega=1e-9)
    assert np.abs(A - D).max() < 1e-7


def test_closed_form_identical_pair_fixed_point():
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    batch = EmbeddingBatch(z, np.array([0, 0]))
    D = cosine_similarity_matrix(batch)
    S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), PARAMS))
    for omega in (0.1, 0.5, 0.9):
        A = diffuse_closed_form(S, D, omega)
        np.testing.assert_allclose(A, np.ones((2, 2)), atol=1e-12)


def test_closed_form_matches_iterative_fixed_point():
    rng = np.random.default_rng(11)
    batch = unit_batch(rng, 5, 3)
    D = cosine_similarity_matrix(batch)
    S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), PARAMS))
    params = DiffusionParams(omega=0.5, tol=1e-12)
    closed = diffuse_closed_form(S, D, 0.5)
    iterated = diffuse_iterative(S, D, params)
    assert np.abs(closed - iterated.matrix).max() < 1e-8


def test_solver_equivalence_across_omegas():
    rng = np.random.default_rng(12)
    for omega in (0.1, 0.5, 0.9, 0.99):
        n = int(rng.integers(4, 21))
        batch = unit_batch(rng, n, 5)
        D = cosine_similarity_matrix(batch)
        S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), PARAMS))
        params = DiffusionParams(omega=omega, tol=1e-12)
        closed = diffuse_closed_form(S, D, omega)
        iterated = diffuse_iterative(S, D, params)
        assert np.abs(closed - iterated.matrix).max() < 1e-8


def test_iterative_zero_state_converges_immediately():
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    result = diffuse_iterative(S, np.zeros((2, 2)), DiffusionParams(omega=0.5))
    np.testing.assert_array_equal(result.matrix, np.zeros((2, 2)))
    assert result.iterations == 1


def test_iterative_zero_transition_fixed_point():
    F0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    result = diffuse_iterative(np.zeros((2, 2)), F0, DiffusionParams(omega=0.25))
    np.testing.assert_allclose(result.matrix, 0.75 * F0, atol=1e-15)


def test_iterative_not_converged_carries_best_iterate():
    # a NaN transition entry never lets the update fall below tol: the sweeps
    # spend the budget derived from omega, tol and ||D||_F
    rng = np.random.default_rng(13)
    batch = unit_batch(rng, 6, 4)
    D = cosine_similarity_matrix(batch)
    S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), PARAMS))
    S[2, 4] = np.nan
    params = DiffusionParams(omega=0.99, tol=1e-14)
    with pytest.raises(NotConverged) as info:
        diffuse_iterative(S, D, params)
    budget = np.floor(np.log(params.tol / (2 * np.linalg.norm(D))) / np.log(params.omega)) + 2
    assert info.value.result.iterations == budget
    assert info.value.result.matrix.shape == D.shape


def test_omega_continuity_error_shrinks_monotonically():
    rng = np.random.default_rng(14)
    for _ in range(5):
        batch = unit_batch(rng, 8, 4)
        D = cosine_similarity_matrix(batch)
        S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), PARAMS))
        errs = [
            np.abs(diffuse_closed_form(S, D, omega) - D).max() for omega in (1e-1, 1e-2, 1e-3)
        ]
        assert errs[0] >= errs[1] - 1e-12
        assert errs[1] >= errs[2] - 1e-12


def test_refine_similarity_solver_modes_agree():
    from diffdistill.diffusion import refine_global, refine_similarity

    rng = np.random.default_rng(18)
    batch = unit_batch(rng, 8, 4)
    D = cosine_similarity_matrix(batch)
    closed = refine_similarity(D, DiffusionParams(omega=0.6))
    S = transition_matrix(build_affinity_batch(D, PARAMS))
    iterated = diffuse_iterative(S, D, DiffusionParams(omega=0.6, tol=1e-12))
    assert closed.iterations == 0
    assert iterated.iterations > 0
    assert np.abs(closed.matrix - iterated.matrix).max() < 1e-8
    knn = refine_global(batch.vectors, DiffusionParams(omega=0.6), knn_k=3)
    assert knn.matrix.shape == D.shape and np.all(np.isfinite(knn.matrix[:]))


def test_refine_similarity_builds_graph_from_d_without_recomputing_it(monkeypatch):
    from diffdistill import diffusion, embeddings

    rng = np.random.default_rng(19)
    Z = unit_batch(rng, 12, 4).vectors
    D = cosine_similarity_matrix(Z)
    kept = D.copy(), Z.copy()
    batch_graph, knn_graph = build_affinity_batch(D, PARAMS), build_affinity_knn(D, 3, PARAMS)
    expected = {
        None: diffuse_closed_form(transition_matrix(batch_graph), D, PARAMS.omega),
        # global: A = Y Z^T with Y solved on the padded graph for the columns of Z
        3: diffuse_closed_form(transition_matrix(knn_graph), Z, PARAMS.omega, knn_graph.neighbors) @ Z.T,
    }

    def recomputed(*args):
        raise AssertionError("refine_similarity recomputed the cosine matrix")

    monkeypatch.setattr(embeddings, "cosine_similarity_matrix", recomputed)
    monkeypatch.setattr(diffusion, "cosine_similarity_matrix", recomputed, raising=False)
    assert np.array_equal(diffusion.refine_similarity(D, PARAMS).matrix, expected[None])
    # the global scope never builds the cosine matrix: its graph comes from row blocks of Z Z^T
    assert np.array_equal(diffusion.refine_global(Z, PARAMS, 3).matrix[:], expected[3])
    assert np.array_equal(D, kept[0]) and np.array_equal(Z, kept[1])  # inputs untouched


def test_diffusion_linear_in_initial_state():
    rng = np.random.default_rng(15)
    batch = unit_batch(rng, 7, 4)
    S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), PARAMS))
    D1 = rng.standard_normal((7, 7))
    D2 = rng.standard_normal((7, 7))
    alpha, beta = 0.7, -1.3
    combined = diffuse_closed_form(S, alpha * D1 + beta * D2, 0.6)
    separate = alpha * diffuse_closed_form(S, D1, 0.6) + beta * diffuse_closed_form(S, D2, 0.6)
    assert np.abs(combined - separate).max() < 1e-9


# ---------------------------------------------------------------------------
# the global scope in factored form against the dense path it replaced


def dense_global_refine(Z, omega, k, eps=PARAMS.degree_epsilon):
    """(1 - omega)(I - omega S)^{-1} D with every n x n array built: D, mask, W, S, A."""
    n = Z.shape[0]
    D = np.clip(Z @ Z.T, -1.0, 1.0)
    ranked = np.argsort(-D, axis=1, kind="stable")
    in_knn = np.zeros((n, n), dtype=bool)
    for i in range(n):
        in_knn[i, ranked[i][ranked[i] != i][:k]] = True
    W = np.where(in_knn & in_knn.T, D, 0.0)
    np.fill_diagonal(W, 0.0)
    np.clip(W, 0.0, None, out=W)
    raw = W.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(raw, eps))
    S = W * np.outer(inv_sqrt, inv_sqrt)
    A = np.linalg.solve(np.eye(n) - omega * S, (1.0 - omega) * D)
    return A, tuple(np.nonzero(raw < eps)[0].tolist())


@st.composite
def global_cases(draw):
    """Unit rows with k from 1 to n - 1; tight clusters saturate every edge, an
    antipodal last row has only negative cosines and so a floored degree."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    k = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    omega = draw(st.floats(0.01, 0.99))
    spread = draw(st.sampled_from([0.05, 0.5, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = rng.standard_normal(d)
    Z = center + spread * np.linalg.norm(center) * rng.standard_normal((n, d))
    if n > 2 and draw(st.booleans()):
        Z[-1] = -center
    block = draw(st.sampled_from([embeddings.RANKING_BLOCK_ROWS, 3, 7]))
    return normalize_rows(Z), k, omega, block


@settings(max_examples=150, deadline=None)
@given(global_cases())
def test_factored_global_closed_form_matches_dense_path(case):
    Z, k, omega, block = case
    expected, degenerate = dense_global_refine(Z, omega, k)
    with mock.patch.object(embeddings, "RANKING_BLOCK_ROWS", block):
        result = refine_global(Z, DiffusionParams(omega=omega), k)
    assert result.degenerate_rows == degenerate
    assert result.matrix.shape == expected.shape
    assert np.abs(result.matrix[:] - expected).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(global_cases())
def test_factored_global_iterative_is_within_tol_of_closed_form(case):
    """The fixed point on the n x d factor stops when its update is below tol.

    S is symmetric with spectral radius <= 1, so the factor's error is at most
    omega / (1 - omega) times the last update's column norm, at most
    sqrt(n) tol; a row of Z is a unit vector, so A's entries move by at most
    sqrt(d) times that.
    """
    Z, k, omega, _ = case
    n, d = Z.shape
    params = DiffusionParams(omega=omega, tol=1e-10)
    closed = refine_global(Z, params, k).matrix[:]
    with mock.patch.object(diffusion, "MAX_DENSE_ROWS", n - 1), mock.patch.object(
        diffusion, "diffuse_closed_form", refuse_dense_solve
    ):
        iterated = refine_global(Z, params, k)
    assert iterated.iterations > 0
    bound = params.tol * omega / (1.0 - omega) * np.sqrt(n * d) + 1e-12
    assert np.abs(iterated.matrix[:] - closed).max() <= bound


def refuse_dense_solve(*args):
    raise AssertionError("n x n system assembled above the dense bound")


def test_global_scope_above_the_real_dense_bound_stays_off_n_squared(monkeypatch):
    # unit rows on an arc, k = 4: the closed form would need 16 B per n^2 entry
    n = diffusion.MAX_DENSE_ROWS + 1
    angles = np.linspace(0.0, 6.0, n)
    Z = np.column_stack([np.cos(angles), np.sin(angles)])
    monkeypatch.setattr(diffusion, "diffuse_closed_form", refuse_dense_solve)
    for omega in (0.5, 0.99):  # 0.99: ~1,200 sweeps, within the budget omega sets
        tracemalloc.start()
        try:
            result = refine_global(Z, DiffusionParams(omega=omega), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations > 0
        assert peak <= 0.25 * 8 * n * n, (omega, peak / (8 * n * n))


def test_global_closed_form_peak_numpy_memory_is_the_system_alone():
    # today's allocation: the n x n system; LAPACK's copy of it is allocated
    # outside numpy, so 3 x 8n^2 also leaves room for it
    n = 1000
    Z = normalize_rows(np.random.default_rng(20).standard_normal((n, 16)))
    tracemalloc.start()
    try:
        refine_global(Z, DiffusionParams(omega=0.9), 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n * n


# ---------------------------------------------------------------------------
# the quadratic objective behind the fixed point


def _objective_triple_loop(A, W, deg, D, omega):
    n = A.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total += 0.5 * W[j, k] * (
                    A[j, i] / np.sqrt(deg[j]) - A[k, i] / np.sqrt(deg[k])
                ) ** 2
    return total + (1 - omega) / omega * np.sum((A - D) ** 2)


def test_objective_zero_when_graph_empty_and_a_equals_d():
    D = np.array([[1.0, 0.5], [0.5, 1.0]])
    value = refinement_objective(D, np.zeros((2, 2)), np.full(2, 1e-8), D, omega=0.5)
    assert value == 0.0


def test_objective_matches_triple_loop_oracle():
    rng = np.random.default_rng(16)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        batch = unit_batch(rng, n, 4)
        graph = build_affinity_batch(cosine_similarity_matrix(batch), PARAMS)
        A = rng.standard_normal((n, n))
        D = cosine_similarity_matrix(batch)
        fast = refinement_objective(A, graph.W, graph.degrees, D, 0.4)
        slow = _objective_triple_loop(A, graph.W, graph.degrees, D, 0.4)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def _nondegenerate_instance(rng, n, d):
    # Prop.-2 equivalence holds when degrees are true row sums (no flooring),
    # so stationarity is probed on graphs without degenerate rows.
    while True:
        batch = unit_batch(rng, n, d)
        graph = build_affinity_batch(cosine_similarity_matrix(batch), PARAMS)
        if not graph.degenerate_rows:
            return batch, graph


def test_objective_stationary_and_minimal_at_diffusion_output():
    rng = np.random.default_rng(17)
    step = 1e-5
    for _ in range(20):
        n = int(rng.integers(4, 9))
        omega = float(rng.choice([0.2, 0.5, 0.8]))
        batch, graph = _nondegenerate_instance(rng, n, 4)
        D = cosine_similarity_matrix(batch)
        S = transition_matrix(graph)
        A = diffuse_closed_form(S, D, omega)

        def J(M):
            return refinement_objective(M, graph.W, graph.degrees, D, omega)

        max_grad = np.abs(_fd_grad(J, A, step)).max()
        assert max_grad <= 1e-6 * (1.0 + np.abs(D).max())

        best = J(A)
        assert best <= J(D) + 1e-12
        for _ in range(10):
            delta = rng.uniform(-1.0, 1.0, size=A.shape)
            delta *= 0.01 / np.abs(delta).max()
            assert best <= J(A + delta) + 1e-12


def test_objective_rejects_nonpositive_degrees():
    with pytest.raises(DegenerateGraph):
        refinement_objective(np.eye(2), np.zeros((2, 2)), np.zeros(2), np.eye(2), 0.5)
