"""Diffusion-refined self-distillation for metric learning, at desk scale.

Batch similarity matrices from a frozen teacher snapshot are refined by a
random-walk diffusion on the batch's own affinity graph, then matched by the
student through a temperature-softened KL loss with a fully analytic gradient.
A toy trainer, an embedding-space evaluation suite, and a CLI tie it together.
"""

from .diffusion import (
    AffinityGraph,
    DiffusionParams,
    DiffusionResult,
    build_affinity_batch,
    build_affinity_knn,
    diffuse_closed_form,
    diffuse_iterative,
    refine_global,
    refine_similarity,
    refinement_objective,
    transition_matrix,
)
from .distill import (
    dynamic_weight,
    psd_grad,
    psd_loss,
    soften,
)
from .embeddings import (
    EmbeddingBatch,
    FactoredSimilarity,
    cosine_similarity_matrix,
    normalize_rows,
    pair_grad_to_raw,
)
from .errors import (
    DegenerateGraph,
    DiffDistillError,
    InsufficientClasses,
    KTooLarge,
    NoValidPairs,
    NotConverged,
    RankDeficient,
    SingularSystem,
    UndefinedDensity,
    ZeroNormRow,
)
from .metrics import (
    MetricsReport,
    embedding_density,
    evaluate_batch,
    kmeans,
    nmi,
    recall_at_k,
    spectral_decay,
)
from .training import (
    Checkpoint,
    Dataset,
    EncoderParams,
    TrainResult,
    baseline_contrastive_loss_and_grad,
    flip_labels,
    generate_synthetic,
    join_segments,
    sample_batch,
    train,
    zero_shot_task,
)

__version__ = "0.1.0"
