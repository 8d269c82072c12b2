"""Wall time of one training epoch's diffusion, for the timing gates."""

import time

import numpy as np

from diffdistill.diffusion import DiffusionParams, refine_global, refine_similarity
from diffdistill.embeddings import EmbeddingBatch, cosine_similarity_matrix


def refine(batch: EmbeddingBatch, params: DiffusionParams, knn_k: int | None):
    """Batch-scope refinement, or global-scope on the mutual-kNN graph when knn_k is set."""
    if knn_k is None:
        return refine_similarity(cosine_similarity_matrix(batch), params)
    return refine_global(batch.vectors, params, knn_k)


def epoch_diffusion_seconds(
    epochs: list[tuple[int, int, int | None]],
    dim: int,
    params: DiffusionParams,
    repeats: int = 5,
    seed: int = 0,
) -> list[float]:
    """Per epoch (n, batch_size, knn_k), the fastest of `repeats` epochs of refinement.

    Each epoch's n random unit embeddings are split into consecutive batches
    of batch_size (the tail remainder is dropped, matching the training loop;
    batch_size = n is one offline solve over the whole set), and affinity
    (mutual-kNN and factored when knn_k is set) + normalization + solve is
    timed over all batches. Every repeat times all epochs back to back, so a slow spell on a
    shared host hits each epoch alike instead of one epoch's whole series;
    each epoch keeps its minimum.
    """
    prepared = []
    for n, batch_size, knn_k in epochs:
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, dim))
        z = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        labels = np.zeros(n, dtype=np.int64)
        batches = [
            EmbeddingBatch(z[start : start + batch_size], labels[start : start + batch_size])
            for start in range(0, n - batch_size + 1, batch_size)
        ]
        # warm up BLAS paths outside the timed region
        refine(batches[0], params, knn_k)
        prepared.append((batches, knn_k))
    best = [np.inf] * len(epochs)
    for _ in range(repeats):
        for j, (batches, knn_k) in enumerate(prepared):
            started = time.perf_counter()
            for batch in batches:
                refine(batch, params, knn_k)
            best[j] = min(best[j], time.perf_counter() - started)
    return best
