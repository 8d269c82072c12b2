"""Embedding-space evaluation: Recall@K, NMI via k-means, density, spectral decay.

Recall@K counts queries with at least one same-class sample among their top-K
cosine neighbors (self excluded). NMI is the standard arithmetic-mean
normalization 2 I / (H(clusters) + H(labels)) with natural logs. Density is the
ratio of the mean within-class pairwise distance to the mean distance between
class-mean embeddings; a higher ratio means less over-clustering. Spectral
decay is the KL divergence from uniform of the normalized singular-value
spectrum after dropping the largest few values; lower means more directions of
variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingBatch, cosine_similarity_matrix, neighbor_ranking
from .errors import KTooLarge, RankDeficient, UndefinedDensity

EUCLIDEAN = "euclidean"
COSINE = "cosine"  # cosine distance, 1 - z_i . z_j


@dataclass(frozen=True)
class MetricsReport:
    recall_at: dict[int, float]
    nmi: float
    density_intra: float | None
    density_inter: float | None
    density_ratio: float | None  # None when density is undefined for the batch
    spectral_decay: float
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "recall": {str(k): v for k, v in sorted(self.recall_at.items())},
            "nmi": self.nmi,
            "density_ratio": self.density_ratio,
            "spectral_decay": self.spectral_decay,
            "meta": dict(self.meta),
        }


def recall_at_k(gallery: EmbeddingBatch, ks: list[int]) -> dict[int, float]:
    """Fraction of samples with a same-class hit among their top-K cosine neighbors."""
    ks = [int(k) for k in ks]
    if not ks or min(ks) < 1:
        raise ValueError("ks must be positive integers")
    if gallery.n < max(ks) + 1:
        raise KTooLarge(f"K={max(ks)} needs at least {max(ks) + 1} samples, have {gallery.n}")
    order = neighbor_ranking(cosine_similarity_matrix(gallery), max(ks))
    neighbor_labels = gallery.labels[order]
    same = neighbor_labels == gallery.labels[:, None]
    return {k: float(np.mean(same[:, :k].any(axis=1))) for k in ks}


def _seed_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy farthest-point seeding: random first center, then max-min distance."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    closest = np.sum((X - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        nxt = int(np.argmax(closest))
        centers[c] = X[nxt]
        closest = np.minimum(closest, np.sum((X - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int) -> tuple[np.ndarray, float]:
    k = centers.shape[0]
    assign = np.full(X.shape[0], -1)
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = X[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
            else:
                # reseed an empty cluster from the point farthest from its center
                dist_to_own = d2[np.arange(len(assign)), assign]
                centers[c] = X[int(np.argmax(dist_to_own))]
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(X.shape[0]), assign].sum())
    return assign, inertia


def kmeans(
    batch: EmbeddingBatch | np.ndarray,
    k: int,
    restarts: int = 10,
    seed: int = 0,
    max_iter: int = 300,
) -> np.ndarray:
    """Lloyd's k-means with farthest-point seeding; best inertia over restarts."""
    X = batch.vectors if isinstance(batch, EmbeddingBatch) else np.asarray(batch, dtype=np.float64)
    if not 1 <= k <= X.shape[0]:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={X.shape[0]}")
    rng = np.random.default_rng(seed)
    best_assign, best_inertia = None, np.inf
    for _ in range(max(1, restarts)):
        assign, inertia = _lloyd(X, _seed_centers(X, k, rng), max_iter)
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    return best_assign


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(assignments, labels) -> float:
    """2 I(A, L) / (H(A) + H(L)) with natural logs; 0 when both entropies vanish."""
    a = np.asarray(assignments)
    b = np.asarray(labels)
    if a.shape != b.shape:
        raise ValueError("assignments and labels must have equal length")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    contingency = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(contingency, (ai, bi), 1.0)
    row = contingency.sum(axis=1)
    col = contingency.sum(axis=0)
    nz = contingency > 0
    joint = contingency[nz] / n
    outer = np.outer(row, col)[nz] / (n * n)
    mutual = float((joint * np.log(joint / outer)).sum())
    denom = _entropy(row) + _entropy(col)
    if denom <= 0.0:
        return 0.0
    return 2.0 * mutual / denom


def _pair_distance(X: np.ndarray, Y: np.ndarray, distance: str) -> np.ndarray:
    if distance == EUCLIDEAN:
        return np.linalg.norm(X - Y, axis=-1)
    if distance == COSINE:
        return 1.0 - np.sum(X * Y, axis=-1)
    raise ValueError(f"unknown distance {distance!r}")


def embedding_density(
    batch: EmbeddingBatch, distance: str = EUCLIDEAN
) -> tuple[float, float, float]:
    """(pi_intra, pi_inter, ratio): mean within-class pair distance over mean
    distance between class-mean embeddings, both over ordered distinct pairs.
    """
    labels = batch.labels
    classes = np.unique(labels)
    if classes.size < 2:
        raise UndefinedDensity("need at least 2 classes")
    Z = batch.vectors
    means = np.stack([Z[labels == c].mean(axis=0) for c in classes])
    ii, jj = np.meshgrid(np.arange(classes.size), np.arange(classes.size), indexing="ij")
    off = ii != jj
    inter = float(np.mean(_pair_distance(means[ii[off]], means[jj[off]], distance)))

    intra_terms = []
    for c in classes:
        members = Z[labels == c]
        if members.shape[0] < 2:
            continue
        pi, pj = np.meshgrid(
            np.arange(members.shape[0]), np.arange(members.shape[0]), indexing="ij"
        )
        keep = pi != pj
        intra_terms.append(_pair_distance(members[pi[keep]], members[pj[keep]], distance))
    if not intra_terms:
        raise UndefinedDensity("need at least one class with >= 2 samples")
    intra = float(np.mean(np.concatenate(intra_terms)))
    if inter == 0.0:
        raise UndefinedDensity("all class means coincide; inter-class distance is zero")
    return intra, inter, intra / inter


def spectral_decay(batch: EmbeddingBatch | np.ndarray, exclude_top: int = 2) -> float:
    """KL(uniform || normalized singular spectrum) after dropping the top values."""
    Z = batch.vectors if isinstance(batch, EmbeddingBatch) else np.asarray(batch, dtype=np.float64)
    if exclude_top < 0:
        raise ValueError("exclude_top must be nonnegative")
    if min(Z.shape) <= exclude_top:
        raise ValueError(
            f"need more than exclude_top={exclude_top} singular values, have {min(Z.shape)}"
        )
    sv = np.linalg.svd(Z, compute_uv=False)[exclude_top:]
    total = float(sv.sum())
    if total < 1e-12:
        raise RankDeficient(f"retained spectrum sums to {total:.3e}")
    p = sv / total
    m = p.size
    u = 1.0 / m
    with np.errstate(divide="ignore"):
        terms = u * (np.log(u) - np.log(p))
    return float(np.sum(terms))


def evaluate_batch(
    batch: EmbeddingBatch,
    ks: list[int],
    kmeans_restarts: int = 10,
    seed: int = 0,
    density_distance: str = EUCLIDEAN,
    exclude_top: int = 2,
) -> MetricsReport:
    """Full metric suite on one embedding batch; k for k-means is the class count.

    Density needs >= 2 classes and a class with >= 2 samples; when the batch
    cannot support it the density fields are None rather than an error, so a
    report is still produced (e.g. for every-sample-its-own-class galleries).
    """
    recall = recall_at_k(batch, ks)
    n_classes = int(np.unique(batch.labels).size)
    assignments = kmeans(batch, n_classes, restarts=kmeans_restarts, seed=seed)
    try:
        intra, inter, ratio = embedding_density(batch, distance=density_distance)
    except UndefinedDensity:
        intra = inter = ratio = None
    rho = spectral_decay(batch, exclude_top=exclude_top)
    return MetricsReport(
        recall_at=recall,
        nmi=nmi(assignments, batch.labels),
        density_intra=intra,
        density_inter=inter,
        density_ratio=ratio,
        spectral_decay=rho,
        meta={
            "n": batch.n,
            "dim": batch.dim,
            "seed": seed,
            "kmeans_restarts": kmeans_restarts,
            "density_distance": density_distance,
            "spectral_exclude_top": exclude_top,
        },
    )
