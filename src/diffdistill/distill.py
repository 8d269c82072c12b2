"""Similarity-matching distillation losses and their analytic gradient.

The loss softens each row of a teacher similarity matrix and the student's
cosine similarity matrix at temperature tau, then averages the row-wise KL
divergences over the batch:

    L = (1/n) sum_i KL( softmax(target_i / tau) || softmax(D_i^(S) / tau) )

The gradient w.r.t. the raw (pre-normalization) student embeddings follows the
chain D -> z -> v. With P the student's softened rows and T the target's, the
matrix G = (P - T) / (n * tau) is dL/dD; each raw row receives

    dL/dv_c = J_c^T sum_j (G_cj + G_jc) z_j,

where J_c is the normalization Jacobian. The G_cj part is the per-anchor
"attention x difference" form (z_j - (z_i.z_j) z_i)(P_ij - T_ij); the G_jc
part accumulates the appearances of z_c in every other anchor's row, which the
per-anchor form alone misses. Diagonal terms stay inside the row softmax; the
Jacobian projects their gradient contribution to zero on its own.

The finite-difference oracle in the test suite is the arbiter for all scale
factors (1/n, 1/tau, 1/||v||).
"""

from __future__ import annotations

import numpy as np

from .embeddings import cosine_similarity_matrix, normalize_rows, pair_grad_to_raw


def row_softmax(M, tau: float) -> np.ndarray:
    """Row-stochastic softmax of M / tau with max-subtraction for stability."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    scaled = np.asarray(M, dtype=np.float64) / tau
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    expd = np.exp(scaled)
    return expd / expd.sum(axis=1, keepdims=True)


def _row_log_softmax(M, tau: float) -> np.ndarray:
    scaled = np.asarray(M, dtype=np.float64) / tau
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    return scaled - np.log(np.exp(scaled).sum(axis=1, keepdims=True))


def psd_loss(target, student_D, tau: float) -> float:
    """Batch-averaged KL between softened target rows and softened student rows."""
    target = np.asarray(target, dtype=np.float64)
    student_D = np.asarray(student_D, dtype=np.float64)
    if target.shape != student_D.shape:
        raise ValueError(f"shape mismatch: target {target.shape} vs student {student_D.shape}")
    n = target.shape[0]
    T = row_softmax(target, tau)
    log_T = _row_log_softmax(target, tau)
    log_P = _row_log_softmax(student_D, tau)
    return float(np.sum(T * (log_T - log_P)) / n)


def dynamic_weight(tau: float, weight: float, epoch: int, total_epochs: int, dynamic: bool = True) -> float:
    """tau^2 * (epoch/total_epochs) * weight when dynamic; tau^2 * weight when static."""
    ramp = epoch / total_epochs if dynamic else 1.0
    return tau**2 * ramp * weight


def psd_grad(student_raw, target_soft, tau: float) -> np.ndarray:
    """Gradient of psd_loss w.r.t. the raw student embeddings.

    `target_soft` must be the already-softened (row-stochastic) target, i.e.
    row_softmax(target_matrix, tau) for the same tau; the teacher path carries
    no gradient.
    """
    V = np.asarray(student_raw, dtype=np.float64)
    T = np.asarray(target_soft, dtype=np.float64)
    n = V.shape[0]
    if T.shape != (n, n):
        raise ValueError(f"target_soft must be ({n}, {n}), got {T.shape}")
    norms = np.linalg.norm(V, axis=1)
    Z = normalize_rows(V)
    P = row_softmax(cosine_similarity_matrix(Z), tau)
    return pair_grad_to_raw((P - T) / (n * tau), Z, norms)
