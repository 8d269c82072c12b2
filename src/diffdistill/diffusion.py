"""Affinity graphs and the random-walk diffusion that refines similarity matrices.

The refinement solves A = (1 - omega) (I - omega S)^{-1} D, where S is the
symmetrically normalized affinity of the batch and D the initial cosine
similarities. Two solvers are provided: a dense linear solve of
(I - omega S) F = (1 - omega) F0 (never an explicit inverse) and the fixed-point
iteration F <- omega S F + (1 - omega) F0. The per-batch graph (full
clamped-cosine affinity, `refine_similarity`) solves for F0 = D. The offline
global graph (mutual-kNN sparsified affinity, `refine_global`) is stored as
padded (n, k) neighbour lists and, since D = Z Z^T, solves for F0 = Z: the
refined matrix is kept as its factors Y Z^T. The graph picks the solver
(`_diffuse`); no setting does.

`refinement_objective` is the quadratic whose unique minimizer is the refined
matrix: a graph-smoothness term that couples A_ji to A_ki with weight W_jk,
plus ((1-omega)/omega) ||A - D||_F^2 anchoring A to the initial similarities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .embeddings import FactoredSimilarity, top_neighbors
from .errors import DegenerateGraph, NotConverged, SingularSystem

# The dense solve assembles the one n x n array left, the system I - omega S;
# with LAPACK's copy that is 16 B per n^2 entry. `refine_global` peaked at
# 659 MB at n = 6,144 (~17 B per n^2 entry above the interpreter), and
# `diffuse --mode global` at 108 MB at n = 2,000. Above it `_diffuse` iterates.
MAX_DENSE_ROWS = 6144


@dataclass(frozen=True)
class DiffusionParams:
    """Random-walk settings. omega in (0,1) blends propagated vs. initial similarity.

    tol stops the fixed-point iteration (`diffuse_iterative`) once the max-abs
    update is below it; its sweep budget follows from omega, tol and F0.
    """

    omega: float = 0.5
    tol: float = 1e-10
    degree_epsilon: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.omega < 1.0:
            raise ValueError(f"omega must lie in (0, 1), got {self.omega}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not self.degree_epsilon > 0:
            raise ValueError(f"degree_epsilon must be positive, got {self.degree_epsilon}")


@dataclass(frozen=True)
class AffinityGraph:
    """Symmetric nonnegative affinity W with floored degrees, dense or padded.

    Dense (`neighbors` None): W is n x n with a zero diagonal. Padded: W and
    `neighbors` are (n, k), W[i, s] the weight of the pair (i, neighbors[i, s]);
    a slot whose pair is no edge weighs 0, and no row lists itself.
    `degrees` holds the diagonal of V after flooring; `degenerate_rows` lists
    rows whose raw degree fell below the floor (the only report of the floor).
    """

    W: np.ndarray
    degrees: np.ndarray
    degenerate_rows: tuple[int, ...] = field(default=())
    neighbors: np.ndarray | None = None


@dataclass(frozen=True)
class DiffusionResult:
    """A refined matrix and what the solve did; iterations is 0 for the closed form.

    The matrix is an ndarray, or for the global scope a `FactoredSimilarity`.
    """

    matrix: np.ndarray | FactoredSimilarity
    iterations: int
    degenerate_rows: tuple[int, ...] = field(default=())


def _finalize_affinity(W: np.ndarray, degree_epsilon: float, neighbors=None) -> AffinityGraph:
    np.clip(W, 0.0, None, out=W)
    degrees = W.sum(axis=1)
    degenerate = np.nonzero(degrees < degree_epsilon)[0]
    # a degree >= epsilon passes unchanged and NaN stays NaN
    degrees = np.maximum(degrees, degree_epsilon)
    return AffinityGraph(W, degrees, tuple(int(i) for i in degenerate), neighbors)


def build_affinity_batch(similarity: np.ndarray, params: DiffusionParams) -> AffinityGraph:
    """Full clamped-cosine affinity of a batch: W_ij = max(D_ij, 0), W_ii = 0.

    `similarity` is the batch's cosine matrix D; it is copied, not modified.
    """
    if similarity.shape[0] < 2:
        raise ValueError("affinity graph needs at least 2 points")
    W = np.array(similarity, dtype=np.float64)
    np.fill_diagonal(W, 0.0)
    return _finalize_affinity(W, params.degree_epsilon)


def mutual_knn(similarity, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's top-k as padded (n, k) arrays: neighbors, their similarities, and mutual.

    The top-k is `top_neighbors`' order (ties by index, self excluded), so
    only a block of rows of `similarity` (ndarray or `FactoredSimilarity`)
    exists at a time. mutual[i, s] says whether row i is in the top-k of
    neighbors[i, s] too.
    """
    n = similarity.shape[0]
    neighbors, scores = top_neighbors(similarity, k)
    rows = np.arange(n)[:, None]
    edges = (np.sort(neighbors, axis=1) + n * rows).ravel()  # i -> j as i*n + j, ascending
    reverse = neighbors * n + rows
    found = np.minimum(np.searchsorted(edges, reverse), edges.size - 1)
    return neighbors, scores, edges[found] == reverse


def build_affinity_knn(similarity, k: int, params: DiffusionParams) -> AffinityGraph:
    """Mutual-kNN sparsified affinity, padded: D kept only on mutual top-k pairs.

    `similarity` is the cosine matrix D, as an ndarray or as a
    `FactoredSimilarity` whose row blocks are computed on demand.
    """
    if similarity.shape[0] < 2:
        raise ValueError("affinity graph needs at least 2 points")
    neighbors, scores, mutual = mutual_knn(similarity, k)
    return _finalize_affinity(np.where(mutual, scores, 0.0), params.degree_epsilon, neighbors)


def transition_matrix(graph: AffinityGraph) -> np.ndarray:
    """Symmetric normalization S = V^{-1/2} W V^{-1/2}, in the graph's layout."""
    bad = np.nonzero(graph.degrees <= 0)[0]
    if bad.size:
        raise DegenerateGraph(bad)
    inv_sqrt = 1.0 / np.sqrt(graph.degrees)
    columns = inv_sqrt if graph.neighbors is None else inv_sqrt[graph.neighbors]
    return graph.W * (inv_sqrt[:, None] * columns)


def padded_matvec(S: np.ndarray, neighbors: np.ndarray):
    """F -> S F for a padded (n, k) S: O(n k d) for F of shape (n, d)."""
    return lambda F: np.einsum("ik,ikd->id", S, F[neighbors])


def diffuse_closed_form(
    S: np.ndarray, F0: np.ndarray, omega: float, neighbors: np.ndarray | None = None
) -> np.ndarray:
    """Solve (I - omega S) F = (1 - omega) F0 for every column of F0 (dense LU).

    S is dense n x n, or padded (n, k) with `neighbors`; either way the one
    n x n system is assembled and solved in one LAPACK call.
    """
    n = S.shape[0]
    if neighbors is None:
        system = np.eye(n) - omega * S
    else:
        system = np.zeros((n, n))
        system[np.arange(n)[:, None], neighbors] = -(omega * S)
        np.fill_diagonal(system, 1.0)
    try:
        F = np.linalg.solve(system, (1.0 - omega) * F0)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"(I - omega S) solve failed: {exc}") from exc
    if not np.all(np.isfinite(F)):
        raise SingularSystem("(I - omega S) solve produced non-finite entries")
    return F


def diffuse_iterative(S, F0: np.ndarray, params: DiffusionParams) -> DiffusionResult:
    """Iterate F <- omega S F + (1 - omega) F0 until the max-abs update < tol.

    `S` is a dense n x n transition or a matvec F -> S F (`padded_matvec`).
    Floored degrees keep ||S||_2 <= 1, so sweep k moves F by at most
    2 omega^k ||F0||_F: the budget is the first k where that is below tol,
    plus one sweep for rounding (taken in logs of F0 over its largest entry,
    so no finite F0 overflows it). Spending it raises NotConverged, carrying
    the last iterate; finite inputs do so only with a tol below rounding.
    """
    matvec = S if callable(S) else S.__matmul__
    omega = params.omega
    F = np.array(F0, dtype=np.float64)
    base = (1.0 - omega) * F
    budget, scale = 1, float(np.max(np.abs(F), initial=0.0))
    if 0.0 < scale < math.inf:  # else F0 is zero (sweep 1 converges) or not finite
        log_bound = math.log(scale) + math.log(2.0 * float(np.linalg.norm(F / scale)))
        budget = max(math.floor((math.log(params.tol) - log_bound) / math.log(omega)) + 2, 1)
    for iteration in range(1, budget + 1):
        new = omega * matvec(F) + base
        delta = float(np.max(np.abs(new - F))) if F.size else 0.0
        F = new
        if delta < params.tol:
            return DiffusionResult(matrix=F, iterations=iteration)
    raise NotConverged(DiffusionResult(matrix=F, iterations=budget), params.tol)


def _diffuse(graph: AffinityGraph, F0: np.ndarray, params: DiffusionParams) -> DiffusionResult:
    """Transition -> solve on `graph` for the columns of F0; the graph picks the solver.

    A dense graph, or a padded one of at most MAX_DENSE_ROWS rows, takes the
    dense LU; a larger padded graph iterates on its neighbour lists, O(n k d)
    per sweep with nothing n x n.
    """
    S = transition_matrix(graph)
    if graph.neighbors is not None and S.shape[0] > MAX_DENSE_ROWS:
        result = diffuse_iterative(padded_matvec(S, graph.neighbors), F0, params)
    else:
        result = DiffusionResult(diffuse_closed_form(S, F0, params.omega, graph.neighbors), 0)
    return replace(result, degenerate_rows=graph.degenerate_rows)


def refine_similarity(D: np.ndarray, params: DiffusionParams) -> DiffusionResult:
    """Batch-scope diffusion: full affinity -> transition -> solve of a batch's cosine D.

    The graph is built from D itself; the result carries its degenerate rows.
    """
    return _diffuse(build_affinity_batch(D, params), D, params)


def refine_global(Z: np.ndarray, params: DiffusionParams, knn_k: int) -> DiffusionResult:
    """Global-scope diffusion of unit rows Z on their mutual-kNN graph, in factored form.

    D = Z Z^T, so A = (1 - omega)(I - omega S)^{-1} D = Y Z^T with
    Y = (1 - omega)(I - omega S)^{-1} Z, which is only n x d: the result's
    matrix is FactoredSimilarity(Y, Z), and the graph is ranked from row
    blocks of the clipped Z Z^T. Nothing n x n exists except, up to
    MAX_DENSE_ROWS rows, the system I - omega S and LAPACK's copy of it. Above
    that the solve iterates, and a NotConverged carries the iterate of Y.
    """
    Z = np.asarray(Z, dtype=np.float64)
    graph = build_affinity_knn(FactoredSimilarity(Z, Z, clip=True), knn_k, params)
    result = _diffuse(graph, Z, params)
    return replace(result, matrix=FactoredSimilarity(result.matrix, Z))


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

