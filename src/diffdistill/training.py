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
from dataclasses import dataclass, field

import numpy as np

from .diffusion import DiffusionParams, check_dense_rows, refine_global, refine_similarity
from .distill import dynamic_weight, psd_grad, psd_loss, row_softmax
from .embeddings import EmbeddingBatch, cosine_similarity_matrix, normalize_rows, pair_grad_to_raw
from .errors import InsufficientClasses, NoValidPairs
from .metrics import EUCLIDEAN, MetricsReport, embedding_density, evaluate_batch, spectral_decay

DISTILL_NONE = "none"
DISTILL_PSD = "psd"
DISTILL_OBDSD = "obdsd"

SCOPE_BATCH = "batch"
SCOPE_GLOBAL = "global"


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    num_classes: int
    samples_per_class: int
    input_dim: int
    cluster_spread: float
    seed: int
    label_flip_ratio: float = 0.0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.samples_per_class < 2:
            raise ValueError("samples_per_class must be >= 2")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.cluster_spread < 0:
            raise ValueError("cluster_spread must be nonnegative")
        if not 0.0 <= self.label_flip_ratio <= 0.5:
            raise ValueError("label_flip_ratio must lie in [0, 0.5]")


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def generate_synthetic(spec: SyntheticDatasetSpec) -> Dataset:
    """Gaussian clusters around unit-norm class centers, reproducible from seed."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.standard_normal((spec.num_classes, spec.input_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.samples_per_class)
    noise = rng.standard_normal((labels.size, spec.input_dim))
    return Dataset(inputs=centers[labels] + spec.cluster_spread * noise, labels=labels)


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


def zero_shot_task(spec: SyntheticDatasetSpec, num_train_classes: int) -> tuple[Dataset, Dataset]:
    """Split classes disjointly into a train set (label noise applied) and a test set."""
    if not 1 <= num_train_classes < spec.num_classes:
        raise ValueError("num_train_classes must leave at least one test class")
    full = generate_synthetic(spec)
    train_mask = full.labels < num_train_classes
    train = Dataset(full.inputs[train_mask], full.labels[train_mask])
    test = Dataset(full.inputs[~train_mask], full.labels[~train_mask])
    if spec.label_flip_ratio > 0:
        train = flip_labels(train, spec.label_flip_ratio, seed=spec.seed + 1)
    return train, test


def sample_batch(dataset: Dataset, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of batch_size/2 distinct classes with 2 distinct samples each."""
    if batch_size % 2 != 0 or batch_size < 2:
        raise ValueError("batch_size must be a positive even number")
    labels = dataset.labels
    classes, counts = np.unique(labels, return_counts=True)
    eligible = classes[counts >= 2]
    need = batch_size // 2
    if eligible.size < need:
        raise InsufficientClasses(
            f"need {need} classes with >= 2 samples, have {eligible.size}"
        )
    chosen = rng.choice(eligible, size=need, replace=False)
    picks = []
    for c in chosen:
        members = np.nonzero(labels == c)[0]
        picks.append(rng.choice(members, size=2, replace=False))
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


def clone_params(params: EncoderParams) -> EncoderParams:
    return EncoderParams(layers=tuple((W.copy(), b.copy()) for W, b in params.layers))


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
    0). Raises NoValidPairs when the batch has no pairs at all.
    """
    V = np.asarray(raw_vectors, dtype=np.float64)
    labels = np.asarray(labels)
    n = V.shape[0]
    if n < 2:
        raise NoValidPairs("need at least 2 samples to form a pair")
    norms = np.linalg.norm(V, axis=1)
    Z = normalize_rows(V)
    D = Z @ Z.T
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
    return loss, pair_grad_to_raw(g_pairs, Z, norms)


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class TrainerConfig:
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 0.2
    margin: float = 0.5
    hidden_dim: int = 32
    embed_dim: int = 16
    distill_mode: str = DISTILL_OBDSD
    tau: float = 1.0
    distill_weight: float = 40.0
    dynamic: bool = True
    diffusion: DiffusionParams = field(default_factory=DiffusionParams)
    diffusion_scope: str = SCOPE_BATCH
    knn_k: int = 50
    metric_ks: tuple[int, ...] = (1, 2, 4, 8)
    kmeans_restarts: int = 10
    density_distance: str = EUCLIDEAN

    def __post_init__(self):
        if self.distill_mode not in (DISTILL_NONE, DISTILL_PSD, DISTILL_OBDSD):
            raise ValueError(f"unknown distill_mode {self.distill_mode!r}")
        if self.diffusion_scope not in (SCOPE_BATCH, SCOPE_GLOBAL):
            raise ValueError(f"unknown diffusion_scope {self.diffusion_scope!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.distill_weight >= 0:
            raise ValueError("distill_weight must be nonnegative")


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
class TrainResult:
    params: EncoderParams
    history: list[EpochRecord]
    diffusion_seconds: float
    final_train: EmbeddingBatch
    final_test: EmbeddingBatch
    degenerate_rows: dict[int, tuple[int, ...]]  # epoch -> the train rows its diffusion floored


def batch_step_gradients(
    student: EncoderParams,
    teacher: EncoderParams,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainerConfig,
    weight: float,
    global_target: np.ndarray | None = None,
):
    """One batch: losses and parameter gradients of L_DML + weight * L_distill.

    Returns (dml_loss, distill_loss, param_grads, diffusion_seconds,
    degenerate_rows), the last the batch rows the batch-scope diffusion
    floored. The distillation branch (teacher forward, diffusion, KL) is
    skipped entirely when weight == 0 so a zero-weight run is arithmetically
    identical to the baseline.
    """
    V, caches = encoder_forward(student, X)
    dml_loss, d_raw = baseline_contrastive_loss_and_grad(V, y, cfg.margin)
    distill_loss = 0.0
    diff_seconds = 0.0
    floored = ()
    if cfg.distill_mode != DISTILL_NONE and weight != 0.0:
        if cfg.distill_mode == DISTILL_PSD:
            teacher_raw, _ = encoder_forward(teacher, X)
            z_teacher = normalize_rows(teacher_raw)
            target = cosine_similarity_matrix(z_teacher)
        elif global_target is not None:
            target = global_target
        else:
            teacher_raw, _ = encoder_forward(teacher, X)
            z_teacher = normalize_rows(teacher_raw)
            started = time.perf_counter()
            refined = refine_similarity(cosine_similarity_matrix(z_teacher), cfg.diffusion)
            diff_seconds += time.perf_counter() - started
            target, floored = refined.matrix, refined.degenerate_rows
        student_D = cosine_similarity_matrix(normalize_rows(V))
        distill_loss = psd_loss(target, student_D, cfg.tau)
        d_raw = d_raw + weight * psd_grad(V, row_softmax(target, cfg.tau), cfg.tau)
    grads = encoder_backward(student, caches, d_raw)
    return dml_loss, distill_loss, grads, diff_seconds, floored


def train(
    train_set: Dataset,
    test_set: Dataset,
    cfg: TrainerConfig,
    seed: int,
) -> TrainResult:
    """Run the full loop; deterministic given (datasets, cfg, seed)."""
    if cfg.distill_mode == DISTILL_OBDSD and cfg.diffusion_scope == SCOPE_GLOBAL:
        check_dense_rows(train_set.n, cfg.diffusion)  # fail before the first epoch
    rng = np.random.default_rng(seed)
    input_dim = train_set.inputs.shape[1]
    student = init_encoder(rng, input_dim, cfg.hidden_dim, cfg.embed_dim)
    teacher = clone_params(student)
    batches_per_epoch = max(1, train_set.n // cfg.batch_size)
    history: list[EpochRecord] = []
    diffusion_seconds = 0.0
    degenerate_rows = {}

    for epoch in range(cfg.epochs):
        weight = 0.0
        if cfg.distill_mode != DISTILL_NONE:
            weight = dynamic_weight(cfg.tau, cfg.distill_weight, epoch, cfg.epochs, cfg.dynamic)
        global_A, floored = None, set()
        if (
            cfg.distill_mode == DISTILL_OBDSD
            and cfg.diffusion_scope == SCOPE_GLOBAL
            and weight != 0.0
        ):
            # offline diffusion over the whole training set on a mutual-kNN
            # graph, kept factored as A = Y Z^T
            teacher_all = embed_dataset(teacher, train_set)
            started = time.perf_counter()
            refined = refine_global(teacher_all.vectors, cfg.diffusion, cfg.knn_k)
            diffusion_seconds += time.perf_counter() - started
            global_A = refined.matrix
            floored.update(refined.degenerate_rows)  # already train-set rows

        dml_losses, distill_losses = [], []
        for _ in range(batches_per_epoch):
            idx = sample_batch(train_set, cfg.batch_size, rng)
            block = None if global_A is None else global_A.submatrix(idx)
            dml_loss, distill_loss, grads, spent, batch_floored = batch_step_gradients(
                student, teacher, train_set.inputs[idx], train_set.labels[idx], cfg, weight, block
            )
            diffusion_seconds += spent
            floored.update(idx[list(batch_floored)].tolist())
            student = sgd_step(student, grads, cfg.learning_rate)
            dml_losses.append(dml_loss)
            distill_losses.append(distill_loss)

        teacher = clone_params(student)
        if floored:
            degenerate_rows[epoch] = tuple(sorted(floored))

        test_embeds = embed_dataset(student, test_set)
        report = evaluate_batch(
            test_embeds,
            ks=list(cfg.metric_ks),
            kmeans_restarts=cfg.kmeans_restarts,
            seed=seed * 1000 + epoch,
            density_distance=cfg.density_distance,
        )
        train_embeds = embed_dataset(student, train_set)
        _, _, train_ratio = embedding_density(train_embeds, distance=cfg.density_distance)
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
        params=student,
        history=history,
        diffusion_seconds=diffusion_seconds,
        final_train=train_embeds,  # the last epoch's embeddings of the final student
        final_test=test_embeds,
        degenerate_rows=degenerate_rows,
    )
