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

from .embeddings import EmbeddingBatch, _as_matrix, cosine_similarity_matrix, top_neighbors
from .errors import KTooLarge, RankDeficient, UndefinedDensity

EUCLIDEAN = "euclidean"
COSINE = "cosine"  # cosine distance, 1 - z_i . z_j

DENSITY_BLOCK_PAIRS = 4096  # same-class pairs whose rows `embedding_density` gathers at once


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
    order, _ = top_neighbors(cosine_similarity_matrix(gallery), max(ks))
    neighbor_labels = gallery.labels[order]
    same = neighbor_labels == gallery.labels[:, None]
    return {k: float(np.mean(same[:, :k].any(axis=1))) for k in ks}


def _nearest_centers(X: np.ndarray, xx: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per restart, each row's nearest centre: shape (R, n) for centres (R, k, d).

    Bitwise np.argmin over k of ((x - c) ** 2).sum(-1), first index on ties.
    One GEMM screens all R*k centres as |x|^2 - 2 x.c + |c|^2; a row whose
    best two screened values lie within 2 tol is re-ranked by the formula.
    With u = eps/2 and M = |x|^2 + |c|^2, the formula is within (d + 2) u
    relative of |x - c|^2 <= 2M. The screen's |x|^2, |c|^2 and x.c carry d u
    times |x|^2, |c|^2 and |x||c| <= M/2 (any summation order), and its two
    additions round values <= 2M. So |screen - formula| <= (2d + 4) eps M to
    first order; tol = 8 (d + 3) eps (|x|^2 + max |c|^2), plus as many
    subnormals for underflow, covers that 4 times over. Past a 2 tol gap every
    other centre is strictly farther by the formula too; a non-finite tol
    compares false, so its rows are re-ranked.
    """
    R, k, d = centers.shape
    n = X.shape[0]
    if k == 1:
        return np.zeros((R, n), dtype=np.intp)
    cc = (centers * centers).sum(-1)
    screened = (X @ centers.reshape(R * k, d).T).reshape(n, R, k)
    screened *= -2.0
    screened += xx[:, None, None]
    screened += cc
    nearest = np.argmin(screened, axis=-1)
    two = np.sort(screened, axis=-1)[..., :2]
    f64 = np.finfo(np.float64)
    tol = 8 * (d + 3) * (f64.eps * (xx[:, None] + cc.max(axis=1)) + f64.smallest_subnormal)
    rows, restarts = np.nonzero(~(two[..., 1] - two[..., 0] > 2.0 * tol))
    block = max(1, n * R // d)  # keeps the re-rank scratch within n * R * k
    for start in range(0, rows.size, block):
        i, r = rows[start : start + block], restarts[start : start + block]
        nearest[i, r] = np.argmin(((X[i, None, :] - centers[r]) ** 2).sum(-1), axis=1)
    return nearest.T


def _kmeans_restarts(
    X: np.ndarray, k: int, restarts: int, seed: int, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """All restarts of Lloyd's k-means at once: assignments (R, n), inertias (R,).

    Each restart is bitwise the sequential algorithm: farthest-point seeding
    from a random first centre; then assign, stop once nothing moves, else
    move centres to their members' means (row-order sums) and every empty
    cluster to the point farthest from its own old centre.
    """
    n, d = X.shape
    rng = np.random.default_rng(seed)
    first = [int(rng.integers(n)) for _ in range(restarts)]
    centers = np.empty((restarts, k, d))
    centers[:, 0] = X[first]
    closest = ((X - centers[:, :1]) ** 2).sum(-1)
    for c in range(1, k):
        centers[:, c] = X[np.argmax(closest, axis=1)]
        closest = np.minimum(closest, ((X - centers[:, c : c + 1]) ** 2).sum(-1))

    xx = (X * X).sum(1)
    assign = np.full((restarts, n), -1, dtype=np.intp)
    active = np.arange(restarts)
    for _ in range(max_iter):
        new = _nearest_centers(X, xx, centers[active])
        moved = (new != assign[active]).any(axis=1)
        active, new = active[moved], new[moved]
        if not active.size:
            break
        assign[active] = new
        bins = new + k * np.arange(active.size)[:, None]
        counts = np.bincount(bins.ravel(), minlength=active.size * k).reshape(-1, k)
        sums = np.bincount(
            (bins[..., None] * d + np.arange(d)).ravel(),
            weights=np.broadcast_to(X, (active.size, n, d)).ravel(),
            minlength=active.size * k * d,
        ).reshape(-1, k, d)
        updated = centers[active]
        filled = counts > 0
        updated[filled] = sums[filled] / counts[filled][:, None]
        for j in np.nonzero(~filled.all(axis=1))[0]:
            own = ((X - centers[active[j], new[j]]) ** 2).sum(-1)
            updated[j, ~filled[j]] = X[int(np.argmax(own))]
        centers[active] = updated
    if active.size:
        assign[active] = _nearest_centers(X, xx, centers[active])
    inertia = ((X - centers[np.arange(restarts)[:, None], assign]) ** 2).sum(-1).sum(axis=1)
    return assign, inertia


def kmeans(
    batch: EmbeddingBatch | np.ndarray,
    k: int,
    restarts: int = 10,
    seed: int = 0,
    max_iter: int = 300,
) -> np.ndarray:
    """Lloyd's k-means with farthest-point seeding; best inertia over restarts.

    The restarts run together; the first with the lowest finite inertia wins.
    """
    X = batch.vectors if isinstance(batch, EmbeddingBatch) else _as_matrix(batch)
    X = np.ascontiguousarray(X)  # numpy's summation order follows the memory layout
    if not 1 <= k <= X.shape[0]:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={X.shape[0]}")
    if restarts < 1:
        raise ValueError(f"k-means needs at least 1 restart, got {restarts}")
    assign, inertia = _kmeans_restarts(X, k, restarts, seed, max_iter)
    inertia[~np.isfinite(inertia)] = np.inf
    best = int(np.argmin(inertia))
    if inertia[best] == np.inf:
        raise ValueError("k-means inertia overflows: input magnitudes are too large")
    return assign[best]


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
    classes, sizes = np.unique(labels, return_counts=True)
    if classes.size < 2:
        raise UndefinedDensity("need at least 2 classes")
    Z = batch.vectors
    means = np.stack([Z[labels == c].mean(axis=0) for c in classes])
    ii, jj = np.meshgrid(np.arange(classes.size), np.arange(classes.size), indexing="ij")
    off = ii != jj
    inter = float(np.mean(_pair_distance(means[ii[off]], means[jj[off]], distance)))

    # ordered same-class pairs, class by class, in row-major order within a class
    order = np.argsort(labels, kind="stable")
    Zs = Z[order]
    partners = np.repeat(sizes - 1, sizes)  # per sorted row: its class's other rows
    class_start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    offsets = np.concatenate(([0], np.cumsum(partners)))  # each row's first pair
    if not offsets[-1]:
        raise UndefinedDensity("need at least one class with >= 2 samples")
    pair_distances = np.empty(offsets[-1])
    a = 0
    while a < Zs.shape[0]:
        b = max(a + 1, int(np.searchsorted(offsets, offsets[a] + DENSITY_BLOCK_PAIRS, "right")) - 1)
        pi = np.repeat(np.arange(a, b), partners[a:b])
        pj = class_start[pi] + np.arange(pi.size) - (offsets[pi] - offsets[a])
        pj += pj >= pi  # skip the row itself
        pair_distances[offsets[a] : offsets[b]] = _pair_distance(Zs[pi], Zs[pj], distance)
        a = b
    intra = float(np.mean(pair_distances))
    if inter == 0.0:
        raise UndefinedDensity("all class means coincide; inter-class distance is zero")
    return intra, inter, intra / inter


def spectral_decay(batch: EmbeddingBatch | np.ndarray, exclude_top: int = 2) -> float:
    """KL(uniform || normalized singular spectrum) after dropping the top values."""
    Z = batch.vectors if isinstance(batch, EmbeddingBatch) else _as_matrix(batch)
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
