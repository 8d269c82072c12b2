"""Embedding batches, cosine similarity geometry, and the normalization Jacobian.

Everything downstream (diffusion, distillation losses, metrics) works on
row-wise unit-normalized embeddings z_i = v_i / ||v_i|| and their cosine
similarity matrix D_ij = z_i . z_j. The Jacobian of the normalization map is
the chain factor that turns gradients w.r.t. z into gradients w.r.t. the raw
encoder output v, so it lives here next to the map itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroNormRow

ZERO_NORM_EPS = 1e-12
RANKING_BLOCK_ROWS = 256


def _as_matrix(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("embedding matrix contains non-finite entries")
    return arr


def _as_labels(labels, n: int) -> np.ndarray:
    lab = np.asarray(labels, dtype=np.int64)
    if lab.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {lab.shape}")
    return lab


@dataclass(frozen=True)
class EmbeddingBatch:
    """Row-wise unit-norm embeddings with integer class labels."""

    vectors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        vec = _as_matrix(self.vectors)
        lab = _as_labels(self.labels, vec.shape[0])
        norms = np.linalg.norm(vec, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > 1e-9)[0]
        if bad.size:
            raise ValueError(
                f"rows {bad.tolist()} are not unit-norm (max deviation "
                f"{np.abs(norms - 1.0).max():.3e})"
            )
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _reject_zero_norms(norms: np.ndarray, eps: float) -> None:
    bad = np.nonzero(norms < eps)[0]
    if bad.size:
        raise ZeroNormRow(int(bad[0]), float(norms[bad[0]]))


def normalize_rows(vectors, eps: float = ZERO_NORM_EPS) -> np.ndarray:
    """Divide each row by its Euclidean norm. Raises ZeroNormRow below eps."""
    vec = _as_matrix(vectors)
    norms = np.linalg.norm(vec, axis=1)
    _reject_zero_norms(norms, eps)
    return vec / norms[:, None]


def cosine_similarity_matrix(batch: EmbeddingBatch | np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities D_ij = z_i . z_j of a unit-norm batch.

    Entries are clipped to [-1, 1] to absorb last-bit rounding; the diagonal
    is 1 up to the same rounding.
    """
    z = batch.vectors if isinstance(batch, EmbeddingBatch) else np.asarray(batch, dtype=np.float64)
    return np.clip(z @ z.T, -1.0, 1.0)


def neighbor_ranking(similarity: np.ndarray, top: int) -> np.ndarray:
    """Each row's first `top` neighbor columns, shape (n, top).

    Order: descending similarity, self excluded, ties broken by lower index.
    Rows are ranked RANKING_BLOCK_ROWS at a time, so scratch stays block x n.
    """
    n = similarity.shape[0]
    if not 1 <= top < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={top}, n={n}")
    order = np.empty((n, top), dtype=np.intp)
    for start in range(0, n, RANKING_BLOCK_ROWS):
        stop = min(start + RANKING_BLOCK_ROWS, n)
        negated = -similarity[start:stop]
        negated[np.arange(stop - start), np.arange(start, stop)] = np.inf
        order[start:stop] = np.argsort(negated, axis=1, kind="stable")[:, :top]
    return order


def pair_grad_to_raw(G, Z, norms, eps: float = ZERO_NORM_EPS) -> np.ndarray:
    """Chain dL/dD = G through D = Z Z^T and z_i = v_i/||v_i|| to dL/dV.

    Z holds the unit rows and `norms` the raw norms ||v_i||. Row c is
    (1/||v_c||)(I - z_c z_c^T) sum_j (G_cj + G_jc) z_j: the normalization
    Jacobian removes the radial part, so each output row is orthogonal to z_c.
    Raises ZeroNormRow for a norm below eps.
    """
    _reject_zero_norms(norms, eps)
    grad_z = (G + G.T) @ Z
    radial = np.sum(grad_z * Z, axis=1, keepdims=True)
    return (grad_z - radial * Z) / norms[:, None]
