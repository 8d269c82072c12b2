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

from dataclasses import dataclass

import numpy as np

from .embeddings import pair_grad_to_raw, row_geometry


@dataclass(frozen=True)
class SoftRows:
    """Row softmax of M / tau and its logarithm, from one max-shifted exponential."""

    probs: np.ndarray
    log_probs: np.ndarray


def soften(M, tau: float) -> SoftRows:
    """Softmax and log-softmax of the rows of M / tau, max-subtracted for stability."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    scaled = np.asarray(M, dtype=np.float64) / tau
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    expd = np.exp(scaled)
    total = expd.sum(axis=1, keepdims=True)
    return SoftRows(expd / total, scaled - np.log(total))


def psd_loss(target, student_D, tau: float) -> float:
    """Batch-averaged KL between softened target rows and softened student rows.

    `target` is the teacher similarity matrix, or already `soften(target, tau)`.
    """
    T = target if isinstance(target, SoftRows) else soften(target, tau)
    student_D = np.asarray(student_D, dtype=np.float64)
    if T.probs.shape != student_D.shape:
        raise ValueError(f"shape mismatch: target {T.probs.shape} vs student {student_D.shape}")
    n = student_D.shape[0]
    return float(np.sum(T.probs * (T.log_probs - soften(student_D, tau).log_probs)) / n)


def dynamic_weight(tau: float, weight: float, epoch: int, total_epochs: int, dynamic: bool = True) -> float:
    """tau^2 * (epoch/total_epochs) * weight when dynamic; tau^2 * weight when static."""
    ramp = epoch / total_epochs if dynamic else 1.0
    return tau**2 * ramp * weight


def psd_grad(student_raw, target_soft, tau: float) -> np.ndarray:
    """Gradient of psd_loss w.r.t. the raw student embeddings.

    `student_raw` is the raw embedding matrix or its `row_geometry`.
    `target_soft` must be the already-softened (row-stochastic) target, i.e.
    soften(target_matrix, tau) for the same tau or its `probs`; the teacher
    path carries no gradient.
    """
    student = row_geometry(student_raw)
    T = target_soft.probs if isinstance(target_soft, SoftRows) else np.asarray(target_soft, dtype=np.float64)
    n = student.Z.shape[0]
    if T.shape != (n, n):
        raise ValueError(f"target_soft must be ({n}, {n}), got {T.shape}")
    P = soften(student.cosine, tau).probs
    return pair_grad_to_raw((P - T) / (n * tau), student.Z, student.norms)
