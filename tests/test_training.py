from dataclasses import replace

import numpy as np
import pytest

from diffdistill import diffusion, training
from diffdistill.diffusion import DiffusionParams
from diffdistill.distill import psd_loss
from diffdistill.embeddings import cosine_similarity_matrix, normalize_rows
from diffdistill.errors import InsufficientClasses, NotConverged, NoValidPairs
from diffdistill.training import (
    Dataset,
    SyntheticDatasetSpec,
    TrainerConfig,
    baseline_contrastive_loss_and_grad,
    batch_step_gradients,
    encoder_backward,
    encoder_forward,
    flip_labels,
    generate_synthetic,
    init_encoder,
    sample_batch,
    train,
    zero_shot_task,
)
from helpers import flatten_params, unflatten_params

SPEC = SyntheticDatasetSpec(
    num_classes=16, samples_per_class=12, input_dim=16, cluster_spread=0.35, seed=7
)


def small_config(**overrides):
    base = dict(
        epochs=3,
        batch_size=16,
        learning_rate=0.3,
        margin=0.5,
        hidden_dim=8,
        embed_dim=8,
        distill_mode="obdsd",
        tau=1.0,
        distill_weight=2.0,
        diffusion=DiffusionParams(omega=0.5),
        metric_ks=(1, 2),
        kmeans_restarts=3,
    )
    base.update(overrides)
    return TrainerConfig(**base)


# ---------------------------------------------------------------------------
# synthetic data


def test_zero_spread_collapses_classes():
    spec = SyntheticDatasetSpec(
        num_classes=3, samples_per_class=4, input_dim=5, cluster_spread=0.0, seed=0
    )
    data = generate_synthetic(spec)
    for c in range(3):
        rows = data.inputs[data.labels == c]
        assert np.all(rows == rows[0])


def test_same_seed_same_dataset():
    a = generate_synthetic(SPEC)
    b = generate_synthetic(SPEC)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate_synthetic(
        SyntheticDatasetSpec(
            num_classes=16, samples_per_class=12, input_dim=16, cluster_spread=0.35, seed=8
        )
    )
    assert not np.array_equal(a.inputs, c.inputs)


def test_tight_clusters_one_nn_accuracy():
    spec = SyntheticDatasetSpec(
        num_classes=4, samples_per_class=10, input_dim=16, cluster_spread=0.1, seed=1
    )
    data = generate_synthetic(spec)
    hits = 0
    for i in range(data.n):
        dists = np.linalg.norm(data.inputs - data.inputs[i], axis=1)
        dists[i] = np.inf
        hits += data.labels[np.argmin(dists)] == data.labels[i]
    assert hits / data.n > 0.95


def test_zero_shot_split_disjoint_classes():
    train_set, test_set = zero_shot_task(SPEC, num_train_classes=8)
    assert set(np.unique(train_set.labels)) == set(range(8))
    assert set(np.unique(test_set.labels)) == set(range(8, 16))
    assert train_set.n == 96 and test_set.n == 96


# ---------------------------------------------------------------------------
# label flipping


def test_flip_zero_ratio_unchanged():
    data = generate_synthetic(SPEC)
    flipped = flip_labels(data, 0.0, seed=3)
    np.testing.assert_array_equal(flipped.labels, data.labels)


def test_flip_exact_count_none_to_original():
    spec = SyntheticDatasetSpec(
        num_classes=10, samples_per_class=10, input_dim=4, cluster_spread=0.2, seed=2
    )
    data = generate_synthetic(spec)  # n = 100
    flipped = flip_labels(data, 0.4, seed=5)
    changed = np.nonzero(flipped.labels != data.labels)[0]
    assert changed.size == 40
    assert np.all(flipped.labels[changed] != data.labels[changed])
    assert set(np.unique(flipped.labels)) <= set(np.unique(data.labels))


def test_flip_deterministic():
    data = generate_synthetic(SPEC)
    a = flip_labels(data, 0.3, seed=11)
    b = flip_labels(data, 0.3, seed=11)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_flip_rejects_bad_ratio():
    data = generate_synthetic(SPEC)
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
        fd = np.zeros_like(V)
        for idx in np.ndindex(V.shape):
            plus, minus = V.copy(), V.copy()
            plus[idx] += step
            minus[idx] -= step
            fd[idx] = (
                baseline_contrastive_loss_and_grad(plus, labels, margin)[0]
                - baseline_contrastive_loss_and_grad(minus, labels, margin)[0]
            ) / (2 * step)
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
        theta = flatten_params(params)
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += step
            minus[i] -= step
            fp = float(np.sum(encoder_forward(unflatten_params(plus, params), X)[0] ** 2))
            fm = float(np.sum(encoder_forward(unflatten_params(minus, params), X)[0] ** 2))
            fd[i] = (fp - fm) / (2 * step)
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

    _, _, grads, _, _ = batch_step_gradients(params, teacher, X, y, cfg, weight)
    analytic = flatten_params(type(params)(layers=tuple(grads)))

    teacher_target = cosine_similarity_matrix(normalize_rows(encoder_forward(teacher, X)[0]))

    def scalar_loss(theta):
        p = unflatten_params(theta, params)
        V, _ = encoder_forward(p, X)
        dml, _ = baseline_contrastive_loss_and_grad(V, y, cfg.margin)
        student_D = cosine_similarity_matrix(normalize_rows(V))
        return dml + weight * psd_loss(teacher_target, student_D, cfg.tau)

    theta0 = flatten_params(params)
    fd = np.zeros_like(theta0)
    for i in range(theta0.size):
        plus, minus = theta0.copy(), theta0.copy()
        plus[i] += step
        minus[i] -= step
        fd[i] = (scalar_loss(plus) - scalar_loss(minus)) / (2 * step)
    rel = np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12)
    assert rel < 1e-4


# ---------------------------------------------------------------------------
# training loop behavior


@pytest.mark.parametrize(
    "field, value", [("tau", 0.0), ("tau", float("nan")), ("distill_weight", -1.0), ("epochs", 0)]
)
def test_trainer_config_rejects_bad_schedule(field, value):
    with pytest.raises(ValueError, match=field):
        TrainerConfig(**{field: value})


def test_train_deterministic():
    train_set, test_set = zero_shot_task(SPEC, 8)
    cfg = small_config()
    a = train(train_set, test_set, cfg, seed=0)
    b = train(train_set, test_set, cfg, seed=0)
    np.testing.assert_array_equal(flatten_params(a.params), flatten_params(b.params))
    assert [r.test_report.recall_at[1] for r in a.history] == [
        r.test_report.recall_at[1] for r in b.history
    ]


def test_zero_weight_bitwise_equals_baseline():
    train_set, test_set = zero_shot_task(SPEC, 8)
    base = train(train_set, test_set, small_config(distill_mode="none"), seed=1)
    zero = train(train_set, test_set, small_config(distill_weight=0.0), seed=1)
    np.testing.assert_array_equal(flatten_params(base.params), flatten_params(zero.params))
    for ra, rb in zip(base.history, zero.history):
        assert ra.test_report.recall_at == rb.test_report.recall_at
        assert ra.dml_loss == rb.dml_loss
        assert rb.distill_loss == 0.0


def test_zero_learning_rate_keeps_parameters():
    train_set, test_set = zero_shot_task(SPEC, 8)
    cfg = small_config(epochs=1, learning_rate=0.0)
    rng = np.random.default_rng(3)
    reference = init_encoder(rng, 16, cfg.hidden_dim, cfg.embed_dim)
    result = train(train_set, test_set, cfg, seed=3)
    np.testing.assert_array_equal(flatten_params(result.params), flatten_params(reference))
    assert len(result.history) == 1


def test_teacher_frozen_within_epoch_snapshot_at_boundary(monkeypatch):
    train_set, test_set = zero_shot_task(SPEC, 8)
    cfg = small_config(epochs=4)
    calls = []
    step = training.batch_step_gradients

    def observed(student, teacher, *args):
        calls.append((flatten_params(teacher), flatten_params(student)))
        return step(student, teacher, *args)

    monkeypatch.setattr(training, "batch_step_gradients", observed)
    train(train_set, test_set, cfg, seed=2)
    per_epoch = train_set.n // cfg.batch_size
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
    train_set, test_set = zero_shot_task(SPEC, 8)
    cfg = small_config(epochs=5, tau=2.0, distill_weight=3.0)
    result = train(train_set, test_set, cfg, seed=0)
    for record in result.history:
        assert record.distill_weight == pytest.approx(
            2.0**2 * (record.epoch / 5) * 3.0, abs=1e-15
        )
    assert result.history[0].distill_weight == 0.0


def test_global_scope_runs_and_times_diffusion():
    train_set, test_set = zero_shot_task(SPEC, 8)
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
    train_set, test_set = zero_shot_task(SPEC, 8)
    cfg = small_config(epochs=3)
    result = train(train_set, test_set, cfg, seed=0)
    per_epoch = train_set.n // cfg.batch_size
    assert list(result.degenerate_rows) == [1, 2]  # epoch 0 has zero distillation weight
    for epoch, rows in result.degenerate_rows.items():
        batches = sampled[epoch * per_epoch : (epoch + 1) * per_epoch]
        assert rows == tuple(sorted({int(idx[r]) for idx in batches for r in (0, 3)}))


def test_global_scope_honours_solver_settings():
    train_set, test_set = zero_shot_task(SPEC, 8)
    iterative = DiffusionParams(omega=0.5, mode="iterative", max_iter=1)
    cfg = small_config(epochs=2, diffusion_scope="global", knn_k=10, diffusion=iterative)
    with pytest.raises(NotConverged):
        train(train_set, test_set, cfg, seed=0)


def test_global_scope_row_guard_covers_only_the_closed_form(monkeypatch):
    # the iterative solve works on the padded graph alone, with no n x n system
    train_set, test_set = zero_shot_task(SPEC, 8)
    monkeypatch.setattr(diffusion, "MAX_DENSE_ROWS", train_set.n - 1)
    with pytest.raises(ValueError, match="MAX_DENSE_ROWS"):
        train(train_set, test_set, small_config(epochs=2, diffusion_scope="global", knn_k=10), seed=0)
    iterative = DiffusionParams(omega=0.5, mode="iterative")
    cfg = small_config(epochs=2, diffusion_scope="global", knn_k=10, diffusion=iterative)
    assert len(train(train_set, test_set, cfg, seed=0).history) == 2
