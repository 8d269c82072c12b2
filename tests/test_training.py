import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdistill import diffusion, training
from diffdistill.config import ConfigError, default_config_text, parse_config_text
from diffdistill.distill import psd_loss
from diffdistill.embeddings import cosine_similarity_matrix, normalize_rows
from diffdistill.errors import InsufficientClasses, NotConverged, NoValidPairs
from diffdistill.training import (
    Dataset,
    baseline_contrastive_loss_and_grad,
    batch_step_gradients,
    encoder_backward,
    encoder_forward,
    flip_labels,
    generate_synthetic,
    init_encoder,
    join_segments,
    sample_batch,
    train,
    zero_shot_task,
)
from helpers import fd_gradient, flatten_params, unflatten_params

# 8 train and 8 test classes of 12 rows in 16 dimensions, data seed 7: run seed 0
# draws generate_synthetic(*SPEC_DATA)
SPEC = parse_config_text(default_config_text()).with_overrides(cluster_spread=0.35)
SPEC_DATA = (16, 12, 16, 0.35, 7)


def small_config(**overrides):
    base = {
        "epochs": 3,
        "batch_size": 16,
        "learning_rate": 0.3,
        "margin": 0.5,
        "hidden_dim": 8,
        "embed_dim": 8,
        "distill_mode": "obdsd",
        "tau": 1.0,
        "lambda": 2.0,
        "omega": 0.5,
        "recall_ks": (1, 2),
        "kmeans_restarts": 3,
    }
    return SPEC.with_overrides(**{**base, **overrides})


# ---------------------------------------------------------------------------
# synthetic data


def test_zero_spread_collapses_classes():
    data = generate_synthetic(3, 4, 5, 0.0, 0)
    for c in range(3):
        rows = data.inputs[data.labels == c]
        assert np.all(rows == rows[0])


def test_same_seed_same_dataset():
    a = generate_synthetic(*SPEC_DATA)
    b = generate_synthetic(*SPEC_DATA)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate_synthetic(16, 12, 16, 0.35, 8)
    assert not np.array_equal(a.inputs, c.inputs)


def test_tight_clusters_one_nn_accuracy():
    data = generate_synthetic(4, 10, 16, 0.1, 1)
    hits = 0
    for i in range(data.n):
        dists = np.linalg.norm(data.inputs - data.inputs[i], axis=1)
        dists[i] = np.inf
        hits += data.labels[np.argmin(dists)] == data.labels[i]
    assert hits / data.n > 0.95


def test_zero_shot_split_disjoint_classes():
    train_set, test_set = zero_shot_task(SPEC, 0)
    assert set(np.unique(train_set.labels)) == set(range(8))
    assert set(np.unique(test_set.labels)) == set(range(8, 16))
    assert train_set.n == 96 and test_set.n == 96


# ---------------------------------------------------------------------------
# label flipping


def test_flip_zero_ratio_unchanged():
    data = generate_synthetic(*SPEC_DATA)
    flipped = flip_labels(data, 0.0, seed=3)
    np.testing.assert_array_equal(flipped.labels, data.labels)


def test_flip_exact_count_none_to_original():
    data = generate_synthetic(10, 10, 4, 0.2, 2)  # n = 100
    flipped = flip_labels(data, 0.4, seed=5)
    changed = np.nonzero(flipped.labels != data.labels)[0]
    assert changed.size == 40
    assert np.all(flipped.labels[changed] != data.labels[changed])
    assert set(np.unique(flipped.labels)) <= set(np.unique(data.labels))


def test_flip_deterministic():
    data = generate_synthetic(*SPEC_DATA)
    a = flip_labels(data, 0.3, seed=11)
    b = flip_labels(data, 0.3, seed=11)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_flip_rejects_bad_ratio():
    data = generate_synthetic(*SPEC_DATA)
    with pytest.raises(ValueError):
        flip_labels(data, 0.6, seed=0)


# ---------------------------------------------------------------------------
# batch sampling


def test_sample_batch_exact_fit_covers_every_class():
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(16), 4)
    data = Dataset(inputs=np.zeros((64, 2)), labels=labels)
    idx = sample_batch(data, 32, rng)
    assert idx.size == 32
    chosen = labels[idx]
    values, counts = np.unique(chosen, return_counts=True)
    assert values.size == 16
    assert np.all(counts == 2)
    # two distinct samples per class
    assert np.unique(idx).size == 32


def test_sample_batch_distinct_class_count():
    rng = np.random.default_rng(1)
    labels = np.repeat(np.arange(20), 3)
    data = Dataset(inputs=np.zeros((60, 2)), labels=labels)
    idx = sample_batch(data, 8, rng)
    assert np.unique(labels[idx]).size == 4


def test_sample_batch_insufficient_classes():
    rng = np.random.default_rng(2)
    labels = np.repeat(np.arange(3), 5)
    data = Dataset(inputs=np.zeros((15, 2)), labels=labels)
    with pytest.raises(InsufficientClasses):
        sample_batch(data, 8, rng)


def per_call_sample_batch(dataset, batch_size, rng):
    """`sample_batch` as it was, finding every class's members on each call."""
    labels = dataset.labels
    classes, counts = np.unique(labels, return_counts=True)
    eligible = classes[counts >= 2]
    need = batch_size // 2
    if eligible.size < need:
        raise InsufficientClasses(f"need {need} classes with >= 2 samples, have {eligible.size}")
    chosen = rng.choice(eligible, size=need, replace=False)
    picks = []
    for c in chosen:
        members = np.nonzero(labels == c)[0]
        picks.append(rng.choice(members, size=2, replace=False))
    return np.concatenate(picks)


def test_sample_batch_draws_equal_the_per_call_class_index():
    rng = np.random.default_rng(31)
    # shuffled labels; classes of 1, 2, 3 and up to 12 rows, with gaps between labels
    labels = rng.permutation(np.repeat([0, 2, 3, 5, 6, 9, 11, 40], [1, 2, 3, 1, 12, 7, 2, 5]))
    dataset = Dataset(rng.standard_normal((labels.size, 3)), labels)
    eligible = 6  # labels 2, 3, 6, 9, 11 and 40
    for seed in range(20):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for call, half in enumerate(np.random.default_rng(100 + seed).integers(1, eligible + 1, 100)):
            got = sample_batch(dataset, 2 * int(half), ours)
            want = per_call_sample_batch(dataset, 2 * int(half), theirs)
            assert got.dtype == want.dtype and np.array_equal(got, want), (seed, call)
        with pytest.raises(InsufficientClasses, match="have 6"):
            sample_batch(dataset, 2 * eligible + 2, ours)
        with pytest.raises(InsufficientClasses, match="have 6"):
            per_call_sample_batch(dataset, 2 * eligible + 2, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_sample_batch_rejects_odd_size():
    data = Dataset(inputs=np.zeros((10, 2)), labels=np.repeat([0, 1], 5))
    with pytest.raises(ValueError):
        sample_batch(data, 3, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# baseline loss


def test_baseline_identical_same_class_zero_loss():
    V = np.tile(np.array([0.3, 0.4, 0.0]), (4, 1))
    labels = np.zeros(4, dtype=int)
    loss, grad = baseline_contrastive_loss_and_grad(V, labels, margin=0.5)
    assert loss == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(grad, np.zeros_like(V), atol=1e-12)


def test_baseline_orthogonal_negatives_inactive_hinge():
    V = np.eye(4)
    labels = np.arange(4)
    loss, grad = baseline_contrastive_loss_and_grad(V, labels, margin=0.5)
    assert loss == 0.0
    np.testing.assert_allclose(grad, np.zeros_like(V), atol=1e-12)


def test_baseline_rejects_single_sample():
    with pytest.raises(NoValidPairs):
        baseline_contrastive_loss_and_grad(np.ones((1, 3)), np.array([0]), margin=0.5)


def test_baseline_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    step = 1e-6
    for _ in range(20):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(2, 6))
        V = rng.standard_normal((n, d))
        labels = rng.integers(0, 3, size=n)
        labels[:2] = 0  # ensure at least one positive pair
        labels[-1] = 1  # and at least one negative pair
        margin = float(rng.uniform(0.2, 0.7))
        _, analytic = baseline_contrastive_loss_and_grad(V, labels, margin)
        fd = fd_gradient(lambda W: baseline_contrastive_loss_and_grad(W, labels, margin)[0], V, step)
        rel = np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel < 1e-5


def _contrastive_oracle(V, labels, margin):
    """The triu_indices version that baseline_contrastive_loss_and_grad replaced."""
    from diffdistill.embeddings import pair_grad_to_raw

    n = V.shape[0]
    norms = np.linalg.norm(V, axis=1)
    Z = normalize_rows(V)
    D = Z @ Z.T
    iu, ju = np.triu_indices(n, k=1)
    pos = labels[iu] == labels[ju]
    neg = ~pos
    g_pairs = np.zeros((n, n))
    loss = 0.0
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos:
        loss += float(np.mean(1.0 - D[iu[pos], ju[pos]]))
        g_pairs[iu[pos], ju[pos]] -= 1.0 / n_pos
    if n_neg:
        viol = D[iu[neg], ju[neg]] - margin
        loss += float(np.mean(np.maximum(viol, 0.0)))
        active = viol > 0
        g_pairs[iu[neg][active], ju[neg][active]] += 1.0 / n_neg
    return loss, pair_grad_to_raw(g_pairs, Z, norms)


def test_baseline_bitwise_equals_triu_index_oracle():
    rng = np.random.default_rng(12)
    for case in range(300):
        n = int(rng.integers(2, 70))
        d = int(rng.integers(1, 20))
        kind = case % 4
        if kind == 0:
            labels = np.zeros(n, dtype=np.int64)  # positives only
        elif kind == 1:
            labels = rng.permutation(n)  # negatives only
        else:
            labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)  # singletons mixed in
        V = rng.standard_normal((n, d)) * float(rng.uniform(0.1, 3.0))
        margin = float(rng.uniform(-0.5, 1.0))
        loss, grad = baseline_contrastive_loss_and_grad(V, labels, margin)
        expected_loss, expected_grad = _contrastive_oracle(V, labels, margin)
        assert loss == expected_loss
        assert np.array_equal(grad, expected_grad)


# ---------------------------------------------------------------------------
# encoder


def test_encoder_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    step = 1e-6
    for hidden in (0, 6):
        params = init_encoder(rng, input_dim=5, hidden_dim=hidden, embed_dim=4)
        X = rng.standard_normal((7, 5))
        # scalar loss: sum of squares of the raw embeddings
        V, caches = encoder_forward(params, X)
        grads = encoder_backward(params, caches, 2.0 * V)
        flat_analytic = flatten_params(
            type(params)(layers=tuple(grads))
        )

        def loss(theta):
            return float(np.sum(encoder_forward(unflatten_params(theta, params), X)[0] ** 2))

        fd = fd_gradient(loss, flatten_params(params), step)
        rel = np.abs(flat_analytic - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel < 1e-6


def test_combined_gradient_matches_finite_differences():
    # FD of L_DML + w * L_distill w.r.t. every encoder parameter
    rng = np.random.default_rng(5)
    step = 1e-6
    cfg = small_config(distill_mode="psd", hidden_dim=5, embed_dim=4)
    params = init_encoder(rng, input_dim=6, hidden_dim=5, embed_dim=4)
    teacher = init_encoder(rng, input_dim=6, hidden_dim=5, embed_dim=4)
    X = rng.standard_normal((8, 6))
    y = np.repeat(np.arange(4), 2)
    weight = 1.7

    _, _, grads, _, _ = batch_step_gradients(params, teacher, X, y, cfg, cfg.diffusion_params(), weight)
    analytic = flatten_params(type(params)(layers=tuple(grads)))

    teacher_target = cosine_similarity_matrix(normalize_rows(encoder_forward(teacher, X)[0]))

    def scalar_loss(theta):
        p = unflatten_params(theta, params)
        V, _ = encoder_forward(p, X)
        dml, _ = baseline_contrastive_loss_and_grad(V, y, cfg["margin"])
        student_D = cosine_similarity_matrix(normalize_rows(V))
        return dml + weight * psd_loss(teacher_target, student_D, cfg["tau"])

    fd = fd_gradient(scalar_loss, flatten_params(params), step)
    rel = np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12)
    assert rel < 1e-4


# ---------------------------------------------------------------------------
# training loop behavior


@pytest.mark.parametrize("field, value", [("distill_weight", -1.0), ("epochs", 0)])
def test_trainer_config_rejects_bad_schedule(field, value):
    # the distillation weight of the schedule is the config's lambda
    key = {"distill_weight": "lambda"}.get(field, field)
    with pytest.raises(ConfigError, match=f"field '{key}'"):
        small_config(**{key: value})


def test_train_deterministic():
    train_set, test_set = zero_shot_task(SPEC, 0)
    cfg = small_config()
    a = train(train_set, test_set, cfg, seed=0)
    b = train(train_set, test_set, cfg, seed=0)
    np.testing.assert_array_equal(flatten_params(a.params), flatten_params(b.params))
    assert [r.test_report.recall_at[1] for r in a.history] == [
        r.test_report.recall_at[1] for r in b.history
    ]


def test_zero_weight_bitwise_equals_baseline():
    train_set, test_set = zero_shot_task(SPEC, 0)
    base = train(train_set, test_set, small_config(distill_mode="none"), seed=1)
    zero = train(train_set, test_set, small_config(**{"lambda": 0.0}), seed=1)
    np.testing.assert_array_equal(flatten_params(base.params), flatten_params(zero.params))
    for ra, rb in zip(base.history, zero.history):
        assert ra.test_report.recall_at == rb.test_report.recall_at
        assert ra.dml_loss == rb.dml_loss
        assert rb.distill_loss == 0.0


def test_zero_learning_rate_keeps_parameters():
    train_set, test_set = zero_shot_task(SPEC, 0)
    cfg = small_config(epochs=1, learning_rate=0.0)
    rng = np.random.default_rng(3)
    reference = init_encoder(rng, 16, cfg["hidden_dim"], cfg["embed_dim"])
    result = train(train_set, test_set, cfg, seed=3)
    np.testing.assert_array_equal(flatten_params(result.params), flatten_params(reference))
    assert len(result.history) == 1


def test_teacher_frozen_within_epoch_snapshot_at_boundary(monkeypatch):
    train_set, test_set = zero_shot_task(SPEC, 0)
    cfg = small_config(epochs=4)
    calls = []
    step = training.batch_step_gradients

    def observed(student, teacher, *args):
        calls.append((flatten_params(teacher), flatten_params(student)))
        return step(student, teacher, *args)

    monkeypatch.setattr(training, "batch_step_gradients", observed)
    train(train_set, test_set, cfg, seed=2)
    per_epoch = train_set.n // cfg["batch_size"]
    assert len(calls) == 4 * per_epoch
    epochs = [calls[start : start + per_epoch] for start in range(0, len(calls), per_epoch)]
    for batches in epochs:
        teacher, first_student = batches[0]
        # the teacher is the student as it stood when the epoch began: the end of t-1
        np.testing.assert_array_equal(teacher, first_student)
        for later_teacher, _ in batches[1:]:
            np.testing.assert_array_equal(later_teacher, teacher)
        assert not np.array_equal(teacher, batches[-1][1])
    for previous, current in zip(epochs, epochs[1:]):
        assert not np.array_equal(previous[0][0], current[0][0])


def test_weight_schedule_recorded_exactly():
    train_set, test_set = zero_shot_task(SPEC, 0)
    cfg = small_config(epochs=5, tau=2.0, **{"lambda": 3.0})
    result = train(train_set, test_set, cfg, seed=0)
    for record in result.history:
        assert record.distill_weight == pytest.approx(
            2.0**2 * (record.epoch / 5) * 3.0, abs=1e-15
        )
    assert result.history[0].distill_weight == 0.0


def test_global_scope_runs_and_times_diffusion():
    train_set, test_set = zero_shot_task(SPEC, 0)
    cfg = small_config(epochs=2, diffusion_scope="global", knn_k=10)
    result = train(train_set, test_set, cfg, seed=0)
    assert result.diffusion_seconds > 0.0
    assert len(result.history) == 2
    # epoch 0 has zero distillation weight, so only epoch 1 diffuses; train row 63 is floored
    assert result.degenerate_rows == {1: (63,)}


def test_batch_scope_reports_floored_rows_as_train_rows(monkeypatch):
    sampled = []
    real_sample_batch, real_refine = training.sample_batch, training.refine_similarity

    def recorded_sample_batch(*args):
        sampled.append(real_sample_batch(*args))
        return sampled[-1]

    def flooring_rows_0_and_3(D, params):
        return replace(real_refine(D, params), degenerate_rows=(0, 3))

    monkeypatch.setattr(training, "sample_batch", recorded_sample_batch)
    monkeypatch.setattr(training, "refine_similarity", flooring_rows_0_and_3)
    train_set, test_set = zero_shot_task(SPEC, 0)
    cfg = small_config(epochs=3)
    result = train(train_set, test_set, cfg, seed=0)
    per_epoch = train_set.n // cfg["batch_size"]
    assert list(result.degenerate_rows) == [1, 2]  # epoch 0 has zero distillation weight
    for epoch, rows in result.degenerate_rows.items():
        batches = sampled[epoch * per_epoch : (epoch + 1) * per_epoch]
        assert rows == tuple(sorted({int(idx[r]) for idx in batches for r in (0, 3)}))


def test_global_scope_honours_solver_settings(monkeypatch):
    # max_iter and tol bound the solve only above the dense bound, where it iterates
    train_set, test_set = zero_shot_task(SPEC, 0)
    cfg = small_config(epochs=2, diffusion_scope="global", knn_k=10, max_iter=1)
    assert len(train(train_set, test_set, cfg, seed=0).history) == 2
    monkeypatch.setattr(diffusion, "MAX_DENSE_ROWS", train_set.n - 1)
    with pytest.raises(NotConverged):
        train(train_set, test_set, cfg, seed=0)


def test_global_scope_above_dense_bound_iterates_on_the_padded_graph(monkeypatch):
    # the iterative solve works on the padded graph alone, with no n x n system
    train_set, test_set = zero_shot_task(SPEC, 0)
    monkeypatch.setattr(diffusion, "MAX_DENSE_ROWS", train_set.n - 1)

    def refuse_dense_solve(*args):
        raise AssertionError("n x n system assembled above the dense bound")

    iterations = []

    def recorded_iterative(*args):
        result = real_iterative(*args)
        iterations.append(result.iterations)
        return result

    real_iterative = diffusion.diffuse_iterative
    monkeypatch.setattr(diffusion, "diffuse_closed_form", refuse_dense_solve)
    monkeypatch.setattr(diffusion, "diffuse_iterative", recorded_iterative)
    cfg = small_config(epochs=2, diffusion_scope="global", knn_k=10)
    assert len(train(train_set, test_set, cfg, seed=0).history) == 2
    assert len(iterations) == 1 and iterations[0] > 1  # epoch 1 only: epoch 0 has zero weight


# ---------------------------------------------------------------------------
# segments: a run split at epoch boundaries and resumed


def train_in_segments(train_set, test_set, cfg, seed, stops):
    parts, resume = [], None
    for stop in stops:
        parts.append(train(train_set, test_set, cfg, seed, stop, resume))
        resume = parts[-1].end
    return join_segments(parts)


SEGMENT_SETTINGS = {
    "none": {"distill_mode": "none"},
    "psd": {"distill_mode": "psd"},
    "obdsd": {"distill_mode": "obdsd"},
    "obdsd-global": {"distill_mode": "obdsd", "diffusion_scope": "global", "knn_k": 10},
}


@pytest.mark.parametrize("setting", SEGMENT_SETTINGS.values(), ids=SEGMENT_SETTINGS)
@settings(max_examples=8, deadline=None)
@given(epochs=st.integers(2, 5), cuts=st.sets(st.integers(1, 4)), seed=st.integers(0, 3))
def test_split_run_equals_the_unsplit_run_bitwise(setting, epochs, cuts, seed):
    train_set, test_set = zero_shot_task(SPEC, 0)
    cfg = small_config(epochs=epochs, **setting)
    stops = sorted(c for c in cuts if c < epochs) + [epochs]
    whole = train(train_set, test_set, cfg, seed)
    split = train_in_segments(train_set, test_set, cfg, seed, stops)
    assert split.history == whole.history
    np.testing.assert_array_equal(flatten_params(split.params), flatten_params(whole.params))
    assert split.degenerate_rows == whole.degenerate_rows
    for final in ("final_train", "final_test"):
        np.testing.assert_array_equal(getattr(split, final).vectors, getattr(whole, final).vectors)
        np.testing.assert_array_equal(getattr(split, final).labels, getattr(whole, final).labels)
    assert split.end.epoch == whole.end.epoch == epochs
    assert split.end.rng_state == whole.end.rng_state


def test_global_scope_split_keeps_the_floored_rows():
    # the hypothesis test may not draw it: global scope floors row 63 in epoch 1 of 2
    train_set, test_set = zero_shot_task(SPEC, 0)
    cfg = small_config(epochs=2, **SEGMENT_SETTINGS["obdsd-global"])
    assert train_in_segments(train_set, test_set, cfg, 0, [1, 2]).degenerate_rows == {1: (63,)}


@pytest.mark.parametrize("start, stop", [(0, 0), (2, 2), (1, 4)])
def test_train_rejects_an_empty_or_overlong_segment(start, stop):
    train_set, test_set = zero_shot_task(SPEC, 0)
    cfg = small_config(epochs=3)
    resume = None if start == 0 else train(train_set, test_set, cfg, 0, start).end
    with pytest.raises(ValueError, match="not a segment"):
        train(train_set, test_set, cfg, 0, stop, resume)


def test_unpickling_a_train_result_does_not_load_numpy_random():
    # a forked worker returns this; the CLI's main process never loads numpy.random
    train_set, test_set = zero_shot_task(SPEC, 0)
    result = train(train_set, test_set, small_config(epochs=1), seed=0)
    code = "import pickle, sys; pickle.loads(sys.stdin.buffer.read()); print('numpy.random' in sys.modules)"
    src = str(Path(training.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(result), env=env, capture_output=True, timeout=60
    )
    assert loaded.stdout == b"False\n", loaded.stderr
