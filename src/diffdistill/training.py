"""Toy-scale self-distillation training on synthetic Gaussian cluster data.

The encoder is a small manually-differentiated network (one tanh hidden layer,
or a single linear map when hidden_dim = 0) trained with plain fixed-step
gradient descent so every gradient in the pipeline stays auditable by finite
differences. Each epoch iterates 2-samples-per-class batches; the teacher is a
frozen copy of the student from the end of the previous epoch and supplies the
similarity targets, optionally refined by per-batch diffusion or by an offline
per-epoch diffusion over the whole training set (mutual-kNN graph).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .diffusion import DiffusionParams, refine_global, refine_similarity
from .distill import dynamic_weight, psd_grad, psd_loss, soften
from .embeddings import EmbeddingBatch, normalize_rows, pair_grad_to_raw, row_geometry
from .errors import InsufficientClasses, NoValidPairs
from .metrics import MetricsReport, embedding_density, evaluate_batch, spectral_decay

DISTILL_NONE = "none"
DISTILL_PSD = "psd"
DISTILL_OBDSD = "obdsd"

SCOPE_BATCH = "batch"
SCOPE_GLOBAL = "global"


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @cached_property
    def class_members(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The labels with >= 2 rows, ascending, and the row indices of each, ascending."""
        order = np.argsort(self.labels, kind="stable")
        classes, starts, counts = np.unique(self.labels[order], return_index=True, return_counts=True)
        keep = counts >= 2
        return classes[keep], [rows for rows, kept in zip(np.split(order, starts[1:]), keep) if kept]


def generate_synthetic(
    num_classes: int, samples_per_class: int, input_dim: int, cluster_spread: float, seed: int
) -> Dataset:
    """Gaussian clusters around unit-norm class centers, reproducible from seed."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, input_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    noise = rng.standard_normal((labels.size, input_dim))
    return Dataset(inputs=centers[labels] + cluster_spread * noise, labels=labels)


def flip_labels(dataset: Dataset, ratio: float, seed: int) -> Dataset:
    """Reassign exactly floor(ratio * n) labels uniformly to a different class."""
    if not 0.0 <= ratio <= 0.5:
        raise ValueError("ratio must lie in [0, 0.5]")
    n = dataset.n
    count = int(np.floor(ratio * n))
    labels = dataset.labels.copy()
    if count == 0:
        return Dataset(inputs=dataset.inputs, labels=labels)
    rng = np.random.default_rng(seed)
    classes = np.unique(dataset.labels)
    victims = rng.choice(n, size=count, replace=False)
    for i in victims:
        others = classes[classes != dataset.labels[i]]
        labels[i] = rng.choice(others)
    return Dataset(inputs=dataset.inputs, labels=labels)


def zero_shot_task(config, run_seed: int) -> tuple[Dataset, Dataset]:
    """A validated RunConfig's classes, drawn for `run_seed` and split disjointly
    into a train set (label noise applied) and a test set."""
    seed = config["data_seed"] + run_seed
    num_classes = config["num_train_classes"] + config["num_test_classes"]
    spread = config["cluster_spread"]
    full = generate_synthetic(num_classes, config["samples_per_class"], config["input_dim"], spread, seed)
    train_mask = full.labels < config["num_train_classes"]
    train = Dataset(full.inputs[train_mask], full.labels[train_mask])
    test = Dataset(full.inputs[~train_mask], full.labels[~train_mask])
    if config["label_flip_ratio"] > 0:
        train = flip_labels(train, config["label_flip_ratio"], seed=seed + 1)
    return train, test


def sample_batch(dataset: Dataset, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of batch_size/2 distinct classes with 2 distinct samples each."""
    if batch_size % 2 != 0 or batch_size < 2:
        raise ValueError("batch_size must be a positive even number")
    eligible, members = dataset.class_members
    need = batch_size // 2
    if eligible.size < need:
        raise InsufficientClasses(
            f"need {need} classes with >= 2 samples, have {eligible.size}"
        )
    chosen = rng.choice(eligible, size=need, replace=False)
    picks = [rng.choice(members[i], size=2, replace=False) for i in np.searchsorted(eligible, chosen)]
    return np.concatenate(picks)


# ---------------------------------------------------------------------------
# encoder


@dataclass(frozen=True)
class EncoderParams:
    """(weight, bias) per layer; tanh between layers, linear output."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]


def init_encoder(
    rng: np.random.Generator, input_dim: int, hidden_dim: int, embed_dim: int
) -> EncoderParams:
    dims = [input_dim, embed_dim] if hidden_dim == 0 else [input_dim, hidden_dim, embed_dim]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        layers.append((W, np.zeros(fan_out)))
    return EncoderParams(layers=tuple(layers))


def encoder_forward(params: EncoderParams, X: np.ndarray) -> tuple[np.ndarray, list]:
    """Raw (pre-normalization) embeddings plus the activations needed by backward."""
    caches = []
    out = np.asarray(X, dtype=np.float64)
    last = len(params.layers) - 1
    for i, (W, b) in enumerate(params.layers):
        pre = out @ W + b
        act = pre if i == last else np.tanh(pre)
        caches.append((out, act))
        out = act
    return out, caches


def encoder_backward(params: EncoderParams, caches: list, d_out: np.ndarray):
    """Parameter gradients for upstream gradient d_out w.r.t. the raw embeddings."""
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    grad = d_out
    for i in reversed(range(len(params.layers))):
        inp, act = caches[i]
        if i != len(params.layers) - 1:
            grad = grad * (1.0 - act**2)
        grads[i] = (inp.T @ grad, grad.sum(axis=0))
        if i > 0:
            grad = grad @ params.layers[i][0].T
    return tuple(grads)


def sgd_step(params: EncoderParams, grads, lr: float) -> EncoderParams:
    return EncoderParams(
        layers=tuple((W - lr * gW, b - lr * gb) for (W, b), (gW, gb) in zip(params.layers, grads))
    )


def embed_dataset(params: EncoderParams, dataset: Dataset) -> EmbeddingBatch:
    raw, _ = encoder_forward(params, dataset.inputs)
    return EmbeddingBatch(normalize_rows(raw), dataset.labels)


# ---------------------------------------------------------------------------
# baseline metric loss


def baseline_contrastive_loss_and_grad(
    raw_vectors: np.ndarray, labels: np.ndarray, margin: float
) -> tuple[float, np.ndarray]:
    """Contrastive pair loss on cosine similarity, gradient w.r.t. raw embeddings.

    Positives contribute mean(1 - z_i . z_j), negatives mean(max(0, z_i . z_j
    - margin)), each averaged over its own pair set (an absent set contributes
    0). Raises NoValidPairs when the batch has no pairs at all. `raw_vectors`
    may be given as their `row_geometry`.
    """
    student = row_geometry(raw_vectors)
    labels = np.asarray(labels)
    n = student.Z.shape[0]
    if n < 2:
        raise NoValidPairs("need at least 2 samples to form a pair")
    D = student.gram
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    same = labels[:, None] == labels
    pos, neg = upper & same, upper & ~same  # boolean indexing reads pairs in row-major order
    g_pairs = np.zeros((n, n))
    loss = 0.0
    n_pos = int(np.count_nonzero(pos))
    n_neg = int(np.count_nonzero(neg))
    if n_pos:
        loss += float(np.mean(1.0 - D[pos]))
        g_pairs[pos] = -1.0 / n_pos
    if n_neg:
        viol = D[neg] - margin
        loss += float(np.mean(np.maximum(viol, 0.0)))
        g_pairs[neg] = np.where(viol > 0, 1.0 / n_neg, 0.0)
    return loss, pair_grad_to_raw(g_pairs, student.Z, student.norms)


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    distill_weight: float
    dml_loss: float
    distill_loss: float
    test_report: MetricsReport
    train_density_ratio: float
    train_spectral_decay: float


@dataclass(frozen=True)
class Checkpoint:
    """A run between epochs: the next epoch, the student (the next teacher too) and the sampler."""

    epoch: int
    params: EncoderParams
    rng_state: dict  # rng.bit_generator.state: a plain dict, so unpickling loads no numpy.random


@dataclass(frozen=True)
class TrainResult:
    history: list[EpochRecord]
    diffusion_seconds: float
    final_train: EmbeddingBatch
    final_test: EmbeddingBatch
    degenerate_rows: dict[int, tuple[int, ...]]  # epoch -> the train rows its diffusion floored
    end: Checkpoint


def join_segments(parts: list[TrainResult]) -> TrainResult:
    """One run from its consecutive segments, each resumed from the one before."""
    return replace(
        parts[-1],
        history=[record for part in parts for record in part.history],
        diffusion_seconds=sum(part.diffusion_seconds for part in parts),
        degenerate_rows={e: rows for part in parts for e, rows in part.degenerate_rows.items()},
    )


def batch_step_gradients(
    student: EncoderParams,
    teacher: EncoderParams,
    X: np.ndarray,
    y: np.ndarray,
    config,
    diffusion: DiffusionParams,
    weight: float,
    global_target: np.ndarray | None = None,
):
    """One batch: losses and parameter gradients of L_DML + weight * L_distill.

    `config` is the run's validated RunConfig and `diffusion` its
    `diffusion_params()`.

    Returns (dml_loss, distill_loss, param_grads, diffusion_seconds,
    degenerate_rows), the last the batch rows the batch-scope diffusion
    floored. The distillation branch (teacher forward, diffusion, KL) is
    skipped entirely when weight == 0 so a zero-weight run is arithmetically
    identical to the baseline.
    """
    V, caches = encoder_forward(student, X)
    geometry = row_geometry(V)
    dml_loss, d_raw = baseline_contrastive_loss_and_grad(geometry, y, config["margin"])
    distill_loss = 0.0
    diff_seconds = 0.0
    floored = ()
    mode, tau = config["distill_mode"], config["tau"]
    if mode != DISTILL_NONE and weight != 0.0:
        if global_target is not None:
            target = global_target
        else:
            target = row_geometry(encoder_forward(teacher, X)[0]).cosine  # the teacher's batch cosine
            if mode == DISTILL_OBDSD:
                started = time.perf_counter()
                refined = refine_similarity(target, diffusion)
                diff_seconds += time.perf_counter() - started
                target, floored = refined.matrix, refined.degenerate_rows
        soft_target = soften(target, tau)
        distill_loss = psd_loss(soft_target, geometry.cosine, tau)
        d_raw = d_raw + weight * psd_grad(geometry, soft_target, tau)
    grads = encoder_backward(student, caches, d_raw)
    return dml_loss, distill_loss, grads, diff_seconds, floored


def train(
    train_set: Dataset,
    test_set: Dataset,
    config,
    seed: int,
    stop: int | None = None,
    resume: Checkpoint | None = None,
) -> TrainResult:
    """Run epochs resume.epoch (0 without one) up to `stop` (all by default).

    `config` is a validated RunConfig, read by its schema names. Deterministic
    given (datasets, config, seed): a run split at any epochs, each part
    resumed from the `end` of the one before, joins (`join_segments`) into the
    unsplit run, bit for bit, but for `diffusion_seconds`.
    """
    epochs, batch_size, mode = config["epochs"], config["batch_size"], config["distill_mode"]
    diffusion = config.diffusion_params()
    rng = np.random.default_rng(seed)
    if resume is None:
        start = 0
        student = init_encoder(rng, train_set.inputs.shape[1], config["hidden_dim"], config["embed_dim"])
    else:
        start, student = resume.epoch, resume.params
        rng.bit_generator.state = resume.rng_state
    stop = epochs if stop is None else stop
    if not start < stop <= epochs:
        raise ValueError(f"epochs {start}..{stop} are not a segment of 0..{epochs}")
    teacher = student  # frozen, and sgd_step builds new arrays: nothing writes it in place
    batches_per_epoch = max(1, train_set.n // batch_size)
    history: list[EpochRecord] = []
    diffusion_seconds = 0.0
    degenerate_rows = {}

    for epoch in range(start, stop):
        weight = 0.0
        if mode != DISTILL_NONE:
            weight = dynamic_weight(config["tau"], config["lambda"], epoch, epochs, config["dynamic_weight"])
        global_A, floored = None, set()
        if mode == DISTILL_OBDSD and config["diffusion_scope"] == SCOPE_GLOBAL and weight != 0.0:
            # offline diffusion over the whole training set on a mutual-kNN
            # graph, kept factored as A = Y Z^T
            teacher_all = embed_dataset(teacher, train_set)
            started = time.perf_counter()
            refined = refine_global(teacher_all.vectors, diffusion, config["knn_k"])
            diffusion_seconds += time.perf_counter() - started
            global_A = refined.matrix
            floored.update(refined.degenerate_rows)  # already train-set rows

        dml_losses, distill_losses = [], []
        for _ in range(batches_per_epoch):
            idx = sample_batch(train_set, batch_size, rng)
            block = None if global_A is None else global_A.submatrix(idx)
            X, y = train_set.inputs[idx], train_set.labels[idx]
            dml_loss, distill_loss, grads, spent, batch_floored = batch_step_gradients(
                student, teacher, X, y, config, diffusion, weight, block
            )
            diffusion_seconds += spent
            floored.update(idx[list(batch_floored)].tolist())
            student = sgd_step(student, grads, config["learning_rate"])
            dml_losses.append(dml_loss)
            distill_losses.append(distill_loss)

        teacher = student
        if floored:
            degenerate_rows[epoch] = tuple(sorted(floored))

        test_embeds = embed_dataset(student, test_set)
        report = evaluate_batch(
            test_embeds,
            ks=list(config["recall_ks"]),
            kmeans_restarts=config["kmeans_restarts"],
            seed=seed * 1000 + epoch,
            density_distance=config["density_distance"],
        )
        train_embeds = embed_dataset(student, train_set)
        _, _, train_ratio = embedding_density(train_embeds, distance=config["density_distance"])
        train_rho = spectral_decay(train_embeds)
        history.append(
            EpochRecord(
                epoch=epoch,
                distill_weight=weight,
                dml_loss=float(np.mean(dml_losses)),
                distill_loss=float(np.mean(distill_losses)),
                test_report=report,
                train_density_ratio=train_ratio,
                train_spectral_decay=train_rho,
            )
        )

    return TrainResult(
        history=history,
        diffusion_seconds=diffusion_seconds,
        final_train=train_embeds,  # the last epoch's embeddings of the final student
        final_test=test_embeds,
        degenerate_rows=degenerate_rows,
        end=Checkpoint(stop, student, rng.bit_generator.state),
    )
