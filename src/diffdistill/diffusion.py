"""Affinity graphs and the random-walk diffusion that refines similarity matrices.

The refinement solves A = (1 - omega) (I - omega S)^{-1} D, where S is the
symmetrically normalized affinity of the batch and D the initial cosine
similarities. Two solvers are provided: a dense linear solve of
(I - omega S) A = (1 - omega) D (never an explicit inverse) and the fixed-point
iteration F <- omega S F + (1 - omega) F0. The same machinery covers both the
per-batch graph (full clamped-cosine affinity) and the offline global graph
(mutual-kNN sparsified affinity).

`refinement_objective` is the quadratic whose unique minimizer is the refined
matrix: a graph-smoothness term that couples A_ji to A_ki with weight W_jk,
plus ((1-omega)/omega) ||A - D||_F^2 anchoring A to the initial similarities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .embeddings import neighbor_ranking
from .errors import DegenerateGraph, DegenerateGraphWarning, NotConverged, SingularSystem

CLOSED_FORM = "closed_form"
ITERATIVE = "iterative"

# The global graph is solved densely: `diffuse --mode global` peaked at ~103 B
# per n^2 entry at n = 2000, so 6,144 rows need ~3.9 GB.
MAX_DENSE_ROWS = 6144


def check_dense_rows(n: int) -> None:
    """Raise ValueError when a dense global diffusion over n rows exceeds MAX_DENSE_ROWS."""
    if n > MAX_DENSE_ROWS:
        raise ValueError(
            f"global diffusion is dense (n^2 memory): {n} rows exceed MAX_DENSE_ROWS={MAX_DENSE_ROWS}"
        )


@dataclass(frozen=True)
class DiffusionParams:
    """Random-walk settings. omega in (0,1) blends propagated vs. initial similarity."""

    omega: float = 0.5
    mode: str = CLOSED_FORM
    max_iter: int = 500
    tol: float = 1e-10
    degree_epsilon: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.omega < 1.0:
            raise ValueError(f"omega must lie in (0, 1), got {self.omega}")
        if self.mode not in (CLOSED_FORM, ITERATIVE):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class AffinityGraph:
    """Symmetric nonnegative affinity W (zero diagonal) with floored degrees.

    `degrees` holds the diagonal of V after flooring; `degenerate_rows` lists
    rows whose raw degree fell below the floor (reported, then floored).
    """

    W: np.ndarray
    degrees: np.ndarray
    degenerate_rows: tuple[int, ...] = field(default=())

    @property
    def n(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class DiffusionResult:
    """A refined matrix and what the solve did; iterations is 0 for the closed form."""

    matrix: np.ndarray
    iterations: int
    converged: bool
    degenerate_rows: tuple[int, ...] = field(default=())


def _finalize_affinity(W: np.ndarray, degree_epsilon: float) -> AffinityGraph:
    np.fill_diagonal(W, 0.0)
    np.clip(W, 0.0, None, out=W)
    degrees = W.sum(axis=1)
    degenerate = np.nonzero(degrees < degree_epsilon)[0]
    if degenerate.size:
        warnings.warn(
            f"affinity rows {degenerate.tolist()} have degree < {degree_epsilon}; "
            "flooring to keep the normalization defined",
            DegenerateGraphWarning,
            stacklevel=3,
        )
        degrees = np.maximum(degrees, degree_epsilon)
    return AffinityGraph(W=W, degrees=degrees, degenerate_rows=tuple(int(i) for i in degenerate))


def build_affinity_batch(similarity: np.ndarray, params: DiffusionParams) -> AffinityGraph:
    """Full clamped-cosine affinity of a batch: W_ij = max(D_ij, 0), W_ii = 0.

    `similarity` is the batch's cosine matrix D; it is copied, not modified.
    """
    if similarity.shape[0] < 2:
        raise ValueError("affinity graph needs at least 2 points")
    return _finalize_affinity(np.array(similarity, dtype=np.float64), params.degree_epsilon)


def mutual_knn_mask(similarity: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of pairs (i, j), i != j, that appear in each other's top-k.

    Each row's top-k is its `neighbor_ranking` prefix (ties by index, self excluded).
    """
    n = similarity.shape[0]
    in_knn = np.zeros((n, n), dtype=bool)
    in_knn[np.arange(n)[:, None], neighbor_ranking(similarity, k)] = True
    return in_knn & in_knn.T


def build_affinity_knn(similarity: np.ndarray, k: int, params: DiffusionParams) -> AffinityGraph:
    """Mutual-kNN sparsified affinity: the cosine matrix D kept only on mutual top-k pairs."""
    if similarity.shape[0] < 2:
        raise ValueError("affinity graph needs at least 2 points")
    W = np.where(mutual_knn_mask(similarity, k), similarity, 0.0)
    return _finalize_affinity(W, params.degree_epsilon)


def transition_matrix(graph: AffinityGraph) -> np.ndarray:
    """Symmetric normalization S = V^{-1/2} W V^{-1/2}."""
    bad = np.nonzero(graph.degrees <= 0)[0]
    if bad.size:
        raise DegenerateGraph(bad)
    inv_sqrt = 1.0 / np.sqrt(graph.degrees)
    return graph.W * np.outer(inv_sqrt, inv_sqrt)


def diffuse_closed_form(S: np.ndarray, D: np.ndarray, omega: float) -> np.ndarray:
    """Solve (I - omega S) A = (1 - omega) D column by column (dense LU)."""
    n = S.shape[0]
    system = np.eye(n) - omega * S
    try:
        A = np.linalg.solve(system, (1.0 - omega) * D)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"(I - omega S) solve failed: {exc}") from exc
    if not np.all(np.isfinite(A)):
        raise SingularSystem("(I - omega S) solve produced non-finite entries")
    return A


def diffuse_iterative(S: np.ndarray, F0: np.ndarray, params: DiffusionParams) -> DiffusionResult:
    """Iterate F <- omega S F + (1 - omega) F0 until the max-abs update < tol.

    Raises NotConverged (carrying the best iterate) when max_iter is hit.
    """
    omega = params.omega
    F = np.array(F0, dtype=np.float64)
    base = (1.0 - omega) * np.asarray(F0, dtype=np.float64)
    for iteration in range(1, params.max_iter + 1):
        new = omega * (S @ F) + base
        delta = float(np.max(np.abs(new - F))) if F.size else 0.0
        F = new
        if delta < params.tol:
            return DiffusionResult(matrix=F, iterations=iteration, converged=True)
    raise NotConverged(DiffusionResult(matrix=F, iterations=params.max_iter, converged=False), params.tol)


def refine_similarity(
    D: np.ndarray, params: DiffusionParams, knn_k: int | None = None
) -> DiffusionResult:
    """Affinity -> transition -> diffusion of a batch's cosine matrix D, using params.mode.

    The graph is built from D itself. `knn_k` switches it to mutual-kNN
    (global-manifold style); None uses the full batch affinity. The result
    carries the graph's degenerate rows.
    """
    if knn_k is None:
        graph = build_affinity_batch(D, params)
    else:
        graph = build_affinity_knn(D, knn_k, params)
    S = transition_matrix(graph)
    if params.mode == CLOSED_FORM:
        result = DiffusionResult(diffuse_closed_form(S, D, params.omega), 0, True)
    else:
        result = diffuse_iterative(S, D, params)
    return replace(result, degenerate_rows=graph.degenerate_rows)


def refinement_objective(A, W, degrees, D, omega: float) -> float:
    """Quadratic objective minimized by the diffusion fixed point.

    0.5 * sum_{i,j,k} W_jk (A_ji / sqrt(V_jj) - A_ki / sqrt(V_kk))^2
      + ((1 - omega) / omega) * sum_ij (A_ij - D_ij)^2

    The smoothness term couples, for every target column i, the refined
    similarities of graph-adjacent anchors j and k. Note the graph indices
    select rows of A; writing them on columns (with a matching 1/V_ii) changes
    the minimizer away from the diffusion output. Equivalence with the solver
    additionally needs V to equal the true row sums of W, i.e. no degree
    flooring: a floored row has lost its graph term, so the diffusion output
    is stationary here only on graphs without degenerate rows.
    """
    A = np.asarray(A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    deg = np.asarray(degrees, dtype=np.float64)
    bad = np.nonzero(deg <= 0)[0]
    if bad.size:
        raise DegenerateGraph(bad)
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must lie in (0, 1), got {omega}")
    B = A / np.sqrt(deg)[:, None]
    G = B @ B.T
    smooth = float(np.sum(W.sum(axis=1) * np.diag(G)) - np.sum(W * G))
    anchor = (1.0 - omega) / omega * float(np.sum((A - D) ** 2))
    return smooth + anchor

