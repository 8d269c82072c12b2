"""Acceptance suite: every release-gating criterion at its stated tolerance.

Each test prints one `[criterion N] ... PASS/FAIL` line (run with `pytest -s`
to see them on passing runs). The directional criteria share training runs
through module-scoped fixtures; all runs are deterministic, so the verdicts
are reproducible.
"""

import time

import numpy as np
import pytest

from diffdistill.cli import _fd_grad, main
from diffdistill.config import default_config_text, parse_config_text
from diffdistill.diffusion import (
    DiffusionParams,
    build_affinity_batch,
    diffuse_closed_form,
    diffuse_iterative,
    refinement_objective,
    transition_matrix,
)
from diffdistill.distill import psd_grad, psd_loss, soften
from diffdistill.embeddings import EmbeddingBatch, cosine_similarity_matrix, normalize_rows
from diffdistill.metrics import embedding_density, nmi, recall_at_k, spectral_decay
from diffdistill.training import train, zero_shot_task
from epoch_timing import epoch_diffusion_seconds

CONFIG = parse_config_text(default_config_text())
SEEDS = (0, 1, 2, 3, 4)


def report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {label}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {label} {detail}"


def run_task(mode: str, seed: int, flip: float = 0.0, scope: str = "batch"):
    config = CONFIG.with_overrides(distill_mode=mode, label_flip_ratio=flip, diffusion_scope=scope)
    train_set, test_set = zero_shot_task(config, seed)
    return train(train_set, test_set, config, seed=seed)


@pytest.fixture(scope="module")
def clean_runs():
    """Baseline / PSD / OBD-SD runs on the noise-free task (criteria 6, 7, 8, 9)."""
    started = time.perf_counter()
    runs = {
        mode: [run_task(mode, seed) for seed in SEEDS]
        for mode in ("none", "psd", "obdsd")
    }
    runs["elapsed"] = time.perf_counter() - started
    return runs


@pytest.fixture(scope="module")
def noisy_runs(clean_runs):
    """Baseline and OBD-SD at symmetric flip ratios 0.2 and 0.4 (criterion 8)."""
    started = time.perf_counter()
    runs = {
        (mode, flip): [run_task(mode, seed, flip=flip) for seed in SEEDS]
        for mode in ("none", "obdsd")
        for flip in (0.2, 0.4)
    }
    runs["elapsed"] = time.perf_counter() - started
    return runs


@pytest.fixture(scope="module")
def global_runs():
    """OBD-SD with per-epoch offline global mutual-kNN diffusion (criterion 9)."""
    return [run_task("obdsd", seed, scope="global") for seed in SEEDS]


def final_r1(result):
    return result.history[-1].test_report.recall_at[1]


def test_criterion_1_solver_equivalence():
    rng = np.random.default_rng(100)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 21))
        batch = EmbeddingBatch(normalize_rows(rng.standard_normal((n, 6))), np.zeros(n, dtype=np.int64))
        D = cosine_similarity_matrix(batch)
        S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), DiffusionParams()))
        for omega in (0.1, 0.5, 0.9, 0.99):
            closed = diffuse_closed_form(S, D, omega)
            iterated = diffuse_iterative(S, D, DiffusionParams(omega=omega, tol=1e-12))
            worst = max(worst, float(np.abs(closed - iterated.matrix).max()))
    elapsed = time.perf_counter() - started
    report(
        1,
        "closed-form vs iterative diffusion within 1e-8",
        worst < 1e-8 and elapsed < 1.0,
        f"(max gap {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_fixed_point_is_objective_minimum():
    rng = np.random.default_rng(200)
    started = time.perf_counter()
    worst_grad_over_bound = 0.0
    minimality_ok = True
    step = 1e-5
    for trial in range(20):
        omega = float(rng.choice([0.2, 0.5, 0.8]))
        while True:
            n = int(rng.integers(4, 9))
            batch = EmbeddingBatch(
                normalize_rows(rng.standard_normal((n, 5))), np.zeros(n, dtype=np.int64)
            )
            graph = build_affinity_batch(cosine_similarity_matrix(batch), DiffusionParams())
            if not graph.degenerate_rows:
                break
        D = cosine_similarity_matrix(batch)
        A = diffuse_closed_form(transition_matrix(graph), D, omega)

        def J(M):
            return refinement_objective(M, graph.W, graph.degrees, D, omega)

        max_grad = np.abs(_fd_grad(J, A, step)).max()
        bound = 1e-6 * (1.0 + float(np.abs(D).max()))
        worst_grad_over_bound = max(worst_grad_over_bound, max_grad / bound)
        best = J(A)
        minimality_ok &= best <= J(D) + 1e-12
        for _ in range(10):
            delta = rng.uniform(-1.0, 1.0, size=A.shape)
            delta *= 0.01 / np.abs(delta).max()
            minimality_ok &= best <= J(A + delta) + 1e-12
    elapsed = time.perf_counter() - started
    report(
        2,
        "diffusion output is stationary and minimal for the quadratic objective",
        worst_grad_over_bound < 1.0 and minimality_ok and elapsed < 10.0,
        f"(max FD-grad/bound {worst_grad_over_bound:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_3_analytic_gradient_and_gradcheck(tmp_path):
    rng = np.random.default_rng(300)
    started = time.perf_counter()
    worst = 0.0
    step = 1e-6
    for trial in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        tau = float(rng.choice([0.5, 1.0, 2.0]))
        V = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 2.0))
        target = rng.standard_normal((n, n))
        analytic = psd_grad(V, soften(target, tau), tau)
        fd = _fd_grad(
            lambda W: psd_loss(target, cosine_similarity_matrix(normalize_rows(W)), tau), V, step
        )
        worst = max(worst, float(np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12)))
    exit_code = main(["gradcheck", "--trials", "50", "--seed", "0", "--out-dir", str(tmp_path)])
    elapsed = time.perf_counter() - started
    report(
        3,
        "analytic distillation gradient matches finite differences; gradcheck exits 0",
        worst < 1e-5 and exit_code == 0 and elapsed < 30.0,
        f"(max rel err {worst:.2e}, gradcheck exit {exit_code}, {elapsed:.1f}s)",
    )


def test_criterion_4_limit_behavior():
    rng = np.random.default_rng(400)
    batch = EmbeddingBatch(normalize_rows(rng.standard_normal((8, 5))), np.zeros(8, dtype=np.int64))
    D = cosine_similarity_matrix(batch)
    S = transition_matrix(build_affinity_batch(cosine_similarity_matrix(batch), DiffusionParams()))
    omega_gap = float(np.abs(diffuse_closed_form(S, D, 1e-9) - D).max())

    target = rng.standard_normal((6, 6))
    student = rng.standard_normal((6, 6))
    flat_loss = psd_loss(target, student, tau=1e6)

    V = rng.standard_normal((5, 4))
    own_D = cosine_similarity_matrix(normalize_rows(V))
    self_loss = psd_loss(own_D, own_D, tau=1.0)
    self_grad = float(np.abs(psd_grad(V, soften(own_D, 1.0), 1.0)).max())

    ok = omega_gap < 1e-7 and flat_loss < 1e-10 and self_loss == 0.0 and self_grad <= 1e-12
    report(
        4,
        "omega->0, tau->inf, and self-target limits",
        ok,
        f"(|A-D| {omega_gap:.2e}, flat loss {flat_loss:.2e}, self grad {self_grad:.2e})",
    )


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(500)
    ok = True
    # Recall@K vs exhaustive sort on crafted batches (n <= 20)
    for n, classes in ((12, 4), (20, 5)):
        z = normalize_rows(rng.standard_normal((n, 6)))
        labels = rng.integers(0, classes, size=n)
        batch = EmbeddingBatch(z, labels)
        ks = [1, 2, 3, min(8, n - 1)]
        mine = recall_at_k(batch, ks)
        for k in ks:
            hits = 0
            for q in range(n):
                scored = sorted(((float(z[q] @ z[j]), -j) for j in range(n) if j != q), reverse=True)
                hits += any(labels[-j] == labels[q] for _, j in scored[:k])
            ok &= mine[k] == hits / n
    # NMI vs direct contingency computation
    assignments = rng.integers(0, 4, size=20)
    labels = rng.integers(0, 3, size=20)
    table = np.zeros((4, 3))
    for a, b in zip(assignments, labels):
        table[a, b] += 1
    p = table / 20
    mutual = sum(
        p[i, j] * np.log(p[i, j] / (p[i].sum() * p[:, j].sum()))
        for i in range(4)
        for j in range(3)
        if p[i, j] > 0
    )
    h_a = -sum(q * np.log(q) for q in p.sum(axis=1) if q > 0)
    h_b = -sum(q * np.log(q) for q in p.sum(axis=0) if q > 0)
    ok &= nmi(assignments, labels) == pytest.approx(2 * mutual / (h_a + h_b), abs=1e-15)
    # density vs brute-force pair enumeration
    z = normalize_rows(rng.standard_normal((9, 5)))
    labels = np.repeat([0, 1, 2], 3)
    intra, inter, ratio = embedding_density(EmbeddingBatch(z, labels))
    means = [z[labels == c].mean(axis=0) for c in range(3)]
    inter_oracle = np.mean(
        [np.linalg.norm(means[a] - means[b]) for a in range(3) for b in range(3) if a != b]
    )
    intra_oracle = np.mean(
        [
            np.linalg.norm(z[i] - z[j])
            for c in range(3)
            for i in np.nonzero(labels == c)[0]
            for j in np.nonzero(labels == c)[0]
            if i != j
        ]
    )
    ok &= abs(inter - inter_oracle) < 1e-10
    ok &= abs(intra - intra_oracle) < 1e-10
    ok &= abs(ratio - intra_oracle / inter_oracle) < 1e-10
    # spectral decay vs direct SVD + KL
    Z = normalize_rows(rng.standard_normal((20, 8)))
    sv = np.linalg.svd(Z, compute_uv=False)[2:]
    pvec = sv / sv.sum()
    rho_oracle = float(np.sum((1 / pvec.size) * (np.log(1 / pvec.size) - np.log(pvec))))
    ok &= abs(spectral_decay(Z) - rho_oracle) < 1e-10
    report(5, "Recall/NMI/density/spectral equal brute-force oracles", ok)


def test_criterion_6_distillation_ordering(clean_runs):
    base = float(np.mean([final_r1(r) for r in clean_runs["none"]]))
    psd = float(np.mean([final_r1(r) for r in clean_runs["psd"]]))
    obdsd = float(np.mean([final_r1(r) for r in clean_runs["obdsd"]]))
    ok = obdsd >= base and obdsd >= psd and clean_runs["elapsed"] < 300.0
    report(
        6,
        "unseen-class R@1 ordering baseline <= +distill <= +diffused-distill",
        ok,
        f"(base {base:.4f}, psd {psd:.4f}, obdsd {obdsd:.4f}, {clean_runs['elapsed']:.0f}s)",
    )


def test_criterion_7_embedding_space_direction(clean_runs):
    base_pi = float(np.mean([r.history[-1].train_density_ratio for r in clean_runs["none"]]))
    ob_pi = float(np.mean([r.history[-1].train_density_ratio for r in clean_runs["obdsd"]]))
    base_rho = float(np.mean([r.history[-1].train_spectral_decay for r in clean_runs["none"]]))
    ob_rho = float(np.mean([r.history[-1].train_spectral_decay for r in clean_runs["obdsd"]]))
    ok = ob_pi > base_pi and ob_rho < base_rho
    report(
        7,
        "diffused distillation raises density ratio and lowers spectral decay",
        ok,
        f"(pi {base_pi:.4f}->{ob_pi:.4f}, rho {base_rho:.4f}->{ob_rho:.4f})",
    )


def test_criterion_8_noise_robustness_trend(clean_runs, noisy_runs):
    def relative_improvement(flip):
        if flip == 0.0:
            base = np.mean([final_r1(r) for r in clean_runs["none"]])
            ob = np.mean([final_r1(r) for r in clean_runs["obdsd"]])
        else:
            base = np.mean([final_r1(r) for r in noisy_runs[("none", flip)]])
            ob = np.mean([final_r1(r) for r in noisy_runs[("obdsd", flip)]])
        return (ob - base) / base

    rel0 = relative_improvement(0.0)
    rel2 = relative_improvement(0.2)
    rel4 = relative_improvement(0.4)
    elapsed = noisy_runs["elapsed"] + clean_runs["elapsed"]
    ok = rel4 > rel0 and elapsed < 900.0
    report(
        8,
        "relative improvement grows with the mislabeled ratio",
        ok,
        f"(rel {rel0:+.4f} @0.0, {rel2:+.4f} @0.2, {rel4:+.4f} @0.4, {elapsed:.0f}s)",
    )


def test_criterion_9_batch_vs_global_parity(clean_runs, global_runs):
    batch_r1 = float(np.mean([final_r1(r) for r in clean_runs["obdsd"]]))
    global_r1 = float(np.mean([final_r1(r) for r in global_runs]))
    # one epoch of each scope at the criterion's sizes, interleaved, min of 5
    n = CONFIG["num_train_classes"] * CONFIG["samples_per_class"]
    batch_time, global_time = epoch_diffusion_seconds(
        [(n, CONFIG["batch_size"], None), (n, n, CONFIG["knn_k"])],
        dim=CONFIG["embed_dim"],
        params=CONFIG.diffusion_params(),
        repeats=5,
        seed=0,
    )
    gap = abs(batch_r1 - global_r1)
    ok = gap <= 0.02 and batch_time < global_time
    report(
        9,
        "batch vs offline-global diffusion: R@1 within 2 points, batch faster",
        ok,
        f"(batch {batch_r1:.4f} in {batch_time * 1e3:.3f}ms, "
        f"global {global_r1:.4f} in {global_time * 1e3:.3f}ms per epoch)",
    )


def test_criterion_10_linear_epoch_cost():
    params = DiffusionParams(omega=0.5)
    sizes = [2048, 4096, 8192]
    times = epoch_diffusion_seconds(
        [(n, 32, None) for n in sizes], dim=16, params=params, repeats=9, seed=0
    )
    scale = sum(t * s for t, s in zip(times, sizes)) / sum(s * s for s in sizes)
    deviations = [abs(t - scale * s) / (scale * s) for t, s in zip(times, sizes)]
    ok = max(deviations) < 0.25
    report(
        10,
        "per-epoch batch-diffusion time is linear in dataset size",
        ok,
        f"(times {[f'{t * 1e3:.1f}ms' for t in times]}, max deviation {max(deviations):.1%})",
    )
