"""Two-stage domain adaptation for binary text classification under label
and conditional shift: pseudo labeling with learnable label-shift correction,
then class-aware kernel-discrepancy alignment of a source-pretrained model."""

from .adapt import AdaptConfig, AdaptTrace, class_aware_sample, run_adaptation
from .correction import (
    CorrectionParams,
    apply_correction,
    fit_correction,
    pseudo_label,
)
from .data import (
    Dataset,
    Example,
    SparseVec,
    SynthConfig,
    featurize,
    gen_synthetic,
    load_jsonl,
    preprocess,
    split,
    write_jsonl,
)
from .errors import (
    AdaptationError,
    ConfigError,
    DatasetError,
    EmptyPseudoLabelSetError,
)
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    balanced_accuracy,
    confusion,
    f1_and_accuracy,
    metrics_report,
)
from .mmd import (
    EmbeddingBatch,
    contrastive_grad,
    contrastive_loss,
    kernel_blocks,
    median_bandwidth,
)
from .model import (
    ForwardRecord,
    Model,
    ModelParams,
    TrainConfig,
    backward,
    compact,
    forward,
    init,
    load_checkpoint,
    pretrain,
    save_checkpoint,
    softmax,
)

__version__ = "0.1.0"
