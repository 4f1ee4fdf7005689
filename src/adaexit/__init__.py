"""Adaptive early-exit inference engine with entropy-gated exit branches."""

from .branches import (
    BranchSet,
    EntropyProfile,
    branch_entropy,
    entropy_profile,
    init_branches,
    train_branches,
)
from .data import (
    FrameDataset,
    MixtureSpec,
    NoiseSpec,
    SynthDatasetSpec,
    add_noise,
    make_mixture,
    synth_dataset,
)
from .encoder import (
    Encoder,
    EncoderConfig,
    forward_all,
    init_encoder,
    parameter_digest,
)
from .errors import ConfigError, DependencyError, FormatError
from .policy import (
    ExitCounts,
    ExitPolicy,
    ExitTrace,
    calibrate,
    constrain,
    decide_exit,
    fixed_exit_policy,
    load_policy,
    run_exit,
    save_policy,
)
from .probe import (
    DownstreamHead,
    evaluate,
    evaluate_static,
    init_downstream_head,
    normalize_prefix,
    train_downstream,
    weighted_features,
)
from .serialize import (
    Checkpoint,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from .teacher import TeacherHead, pseudo_labels, train_teacher

__version__ = "0.1.0"
