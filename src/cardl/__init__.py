"""Cross-media alignment, retrieval, and deep learning toolkit.

Two small MLP heads project precomputed text and image feature vectors into
one shared unit-norm space, trained with a bidirectional in-batch contrastive
objective.  On top of that space the package provides exact cosine top-k
cross-media search, MAP@k evaluation, a learned pair-relevance head, and a
synthetic clustered dataset with known recovery maps for end-to-end checks.
"""

from .alignment import (
    DEFAULT_TEMPERATURE,
    DEFAULT_UNIFIED_DIM,
    AlignmentModel,
    PairedExample,
    TrainConfig,
    alignment_gradients,
    alignment_loss,
    batch_logits,
    batch_targets,
    fit,
    linear_model,
    project,
    random_projection_model,
    transpose_targets,
)
from .dataio import (
    SyntheticConfig,
    SyntheticDataset,
    build_index_from_records,
    format_report_table,
    generate_synthetic,
    load_features,
    load_index,
    load_model,
    load_pair_head,
    load_pairs_and_qrels,
    load_report,
    oracle_model,
    save_features,
    save_index,
    save_model,
    save_pair_head,
    save_pairs,
    save_qrels,
    save_report,
    unified_records,
)
from .errors import CardlError, DataError, DimensionError, NumericError, UsageError
from .evaluation import (
    AP_CONVENTION,
    EvalReport,
    average_precision,
    evaluate_retrieval,
    mean_average_precision,
)
from .nn import (
    AdamState,
    LinearLayer,
    MlpParams,
    adam_step,
    cross_entropy,
    finite_diff_grad,
    init_mlp,
    mlp_backward,
    mlp_forward,
    stable_softmax,
)
from .pairhead import (
    PairExample,
    PairHead,
    combine_pair,
    fit_pair_head,
    pair_accuracy,
    pair_loss_and_grads,
    predict_pair,
)
from .records import IMAGE, MODALITIES, TEXT, FeatureRecord, opposite_modality
from .retrieval import (
    DIRECTIONS,
    IMG2TXT,
    TXT2IMG,
    RetrievalResult,
    UnifiedIndex,
    build_index,
    cosine_sim,
    cross_media_search,
    l2_normalize,
    query_topk,
)

__version__ = "0.1.0"
