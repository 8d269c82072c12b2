"""Wall time of one training epoch's per-batch diffusion, for the linearity gates."""

import time

import numpy as np

from diffdistill.diffusion import DiffusionParams, refine_similarity
from diffdistill.embeddings import EmbeddingBatch, cosine_similarity_matrix


def epoch_diffusion_seconds(
    sizes: list[int],
    batch_size: int,
    dim: int,
    params: DiffusionParams,
    repeats: int = 5,
    seed: int = 0,
) -> list[float]:
    """Per dataset size, the fastest of `repeats` epochs of per-batch refinement.

    Each size's random unit embeddings are split into consecutive batches of
    batch_size (the tail remainder is dropped, matching the training loop),
    and affinity + normalization + solve is timed over all batches. Every
    repeat times all sizes back to back, so a slow spell on a shared host
    hits each size alike instead of one size's whole series; each size keeps
    its minimum.
    """
    epochs = []
    for n in sizes:
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, dim))
        z = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        labels = np.zeros(n, dtype=np.int64)
        batches = [
            EmbeddingBatch(z[start : start + batch_size], labels[start : start + batch_size])
            for start in range(0, n - batch_size + 1, batch_size)
        ]
        # warm up BLAS paths outside the timed region
        refine_similarity(batches[0], cosine_similarity_matrix(batches[0]), params)
        epochs.append(batches)
    best = [np.inf] * len(sizes)
    for _ in range(repeats):
        for j, batches in enumerate(epochs):
            started = time.perf_counter()
            for batch in batches:
                refine_similarity(batch, cosine_similarity_matrix(batch), params)
            best[j] = min(best[j], time.perf_counter() - started)
    return best
