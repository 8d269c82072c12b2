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


@dataclass(frozen=True)
class RowGeometry:
    """Raw rows' norms, unit rows Z, Z Z^T as computed, and its clipped copy.

    `cosine` equals `cosine_similarity_matrix(Z)`; the contrastive loss reads
    the unclipped `gram`.
    """

    norms: np.ndarray
    Z: np.ndarray
    gram: np.ndarray
    cosine: np.ndarray


def row_geometry(vectors) -> RowGeometry:
    """Normalize raw rows and take their cosine matrix, once; a RowGeometry passes through.

    Raises ZeroNormRow as `normalize_rows` does.
    """
    if isinstance(vectors, RowGeometry):
        return vectors
    vec = _as_matrix(vectors)
    norms = np.linalg.norm(vec, axis=1)
    _reject_zero_norms(norms, ZERO_NORM_EPS)
    Z = vec / norms[:, None]
    gram = Z @ Z.T
    return RowGeometry(norms, Z, gram, np.clip(gram, -1.0, 1.0))


@dataclass(frozen=True)
class FactoredSimilarity:
    """The n x m matrix Y Z^T held as its factors Y (n x d) and Z (m x d).

    `matrix[a:b]` computes rows a..b-1 as an ndarray and `submatrix(idx)` the
    block at rows and columns idx, so nothing n x m is ever stored. `clip`
    bounds entries to [-1, 1] as `cosine_similarity_matrix` does, so
    FactoredSimilarity(Z, Z, clip=True) is the cosine matrix of unit rows Z.
    """

    Y: np.ndarray
    Z: np.ndarray
    clip: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.Y.shape[0], self.Z.shape[0])

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(self.shape[0])
        if step != 1:
            raise IndexError("FactoredSimilarity takes contiguous row slices only")
        if stop - start == 1 and self.shape[0] >= 2:
            # A one-row product goes through gemv, which rounds differently from
            # the gemm of every longer block; computing the row as one of two
            # keeps its bits independent of the block it is computed in.
            lo = min(start, self.shape[0] - 2)
            return self._clipped(self.Y[lo : lo + 2] @ self.Z.T)[start - lo : stop - lo]
        return self._clipped(self.Y[start:stop] @ self.Z.T)

    def submatrix(self, idx: np.ndarray) -> np.ndarray:
        """The square block at rows and columns idx, Y[idx] Z[idx]^T."""
        return self._clipped(self.Y[idx] @ self.Z[idx].T)

    def _clipped(self, block: np.ndarray) -> np.ndarray:
        return np.clip(block, -1.0, 1.0, out=block) if self.clip else block


def _without_self(rows: np.ndarray, start: int) -> np.ndarray:
    """A copy of rows start.. of an n-column matrix without their diagonal entries, (b, n - 1).

    Row r's self column is start + r, so the selves form the diagonal of the
    b x b band of columns start..start+b-1; the band loses its diagonal and the
    columns left and right of it are kept whole, in index order.
    """
    b = rows.shape[0]
    band = rows[:, start : start + b].ravel()[1:].reshape(b - 1, b + 1)[:, :-1].reshape(b, b - 1)
    return np.concatenate([rows[:, :start], band, rows[:, start + b :]], axis=1)


def top_neighbors(similarity, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first `top` neighbor columns and their values, both shape (n, top).

    `similarity` is an n x n ndarray or `FactoredSimilarity`. Rows are ranked
    RANKING_BLOCK_ROWS at a time, so scratch stays block x n, and the values
    are taken from the same block as the order. Order: descending value,
    ties broken by lower index, self excluded: self is dropped from the
    candidates, so it is never listed, whatever the row holds.
    `argpartition` picks `top` candidates per row, sorted by (value, index).
    The candidates are exactly the stable-argsort prefix unless the cut value
    also sits at a column outside them (or is NaN); such rows take the stable
    argsort itself, so the result never depends on argpartition's tie choice.
    """
    n = similarity.shape[0]
    if not 1 <= top < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={top}, n={n}")
    order = np.empty((n, top), dtype=np.intp)
    scores = np.empty((n, top))
    for start in range(0, n, RANKING_BLOCK_ROWS):
        stop = min(start + RANKING_BLOCK_ROWS, n)
        rows = similarity[start:stop]
        negated = _without_self(rows, start)  # column c stands for c + (c >= self)
        np.negative(negated, out=negated)
        candidates = np.sort(np.argpartition(negated, top - 1, axis=1)[:, :top], axis=1)
        values = np.take_along_axis(negated, candidates, axis=1)
        ranked = np.argsort(values, axis=1, kind="stable")
        block = np.take_along_axis(candidates, ranked, axis=1)
        cut = values.max(axis=1, keepdims=True)  # NaN if any candidate is NaN
        spill = np.isnan(cut[:, 0]) | ((negated == cut).sum(axis=1) > (values == cut).sum(axis=1))
        if spill.any():
            block[spill] = np.argsort(negated[spill], axis=1, kind="stable")[:, :top]
        block += block >= np.arange(start, stop)[:, None]
        order[start:stop] = block
        scores[start:stop] = np.take_along_axis(rows, block, axis=1)
    return order, scores


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
