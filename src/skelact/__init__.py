"""Skeleton-based action recognition for 2D pose keypoint sequences."""

from .errors import (
    CheckpointError,
    ConfigurationError,
    ConnectivityError,
    CoverageError,
    EmptySequenceError,
    InsufficientDataError,
    KeypointParseError,
    LayoutMismatchError,
    NonFiniteError,
    SkelactError,
    StateError,
    UndefinedCorrelationError,
    WindowError,
)
from .keypoints import (
    BODY25,
    BODY25_JOINT_NAMES,
    BODY25_NO_FEET,
    BODY25_NO_FEET_JOINT_NAMES,
    BODY25_TO_COCO,
    COCO18,
    COCO18_JOINT_NAMES,
    COCO18_MODIFIED,
    LAYOUT_JOINT_COUNT,
    Joint,
    PersonSkeleton,
    parse_keypoint_frame,
    serialize_keypoint_frame,
)
from .graph import (
    PartitionedAdjacency,
    SkeletonGraph,
    build_graph,
    hop_distance,
    partition_spatial,
)
from .sequence import (
    SkeletonSequence,
    convert_layout,
    load_sequence,
    to_model_input,
)
from .manifest import (
    PROTOCOLS,
    DatasetManifest,
    ManifestRecord,
    ProtocolSplit,
    build_protocol,
    load_split,
    protocol_class_names,
    save_split,
    split_class_counts,
)
from .pipeline import (
    AugmentConfig,
    MoveParams,
    augment_combined,
    normalize_centralize,
    pad_sequence,
    random_frame_window,
    random_move,
    select_persons,
    split_rng,
    subsample_frames,
    track,
)
from .autodiff import Tensor
from .model import (
    ModelConfig,
    read_checkpoint,
    StgcnNetwork,
    load_weights,
    save_weights,
    set_trainable,
)
from .train import (
    SGD,
    SequenceDataset,
    TrainConfig,
    TrainHistory,
    cross_entropy,
    evaluate,
    lr_schedule,
    run_training,
    train_loop,
)
from .metrics import (
    ClassSummary,
    classwise_table,
    confusion_matrix,
    pearson,
    sequence_confidence,
    spearman,
    top_k_accuracy,
)
from .config import RunConfig, load_run_config

__version__ = "0.1.0"
