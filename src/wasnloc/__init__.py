"""Sound source localization for ad-hoc (distributed) microphone arrays.

Classical grid-based localizers (TDOA least squares and the spatial
likelihood function), a relation-network neural localizer that accepts a
variable number of microphones, and the synthetic room-acoustics dataset
pipeline used to train and evaluate them.
"""

from .classical import (
    LocalizationResult,
    enumerate_pairs,
    pick_peak,
    slf_localize,
    tdoa_localize,
)
from .dataset import DatasetConfig, generate_dataset, load_manifest
from .evaluate import EvalReport, evaluate
from .features import (
    Grid,
    extract_frame,
    gcc_phat,
    slf_project,
    theoretical_tdoa_grid,
)
from .mlp import AdamState, Mlp, adam_step
from .relnet import (
    RelNetConfig,
    RelNetModel,
    gnn_localize,
    load_checkpoint,
    mae_loss,
    save_checkpoint,
    target_map,
)
from .rir import (
    average_decay_time,
    eyring_absorption,
    schroeder_decay_time,
    simulate_rir,
)
from .scenes import (
    RoomSpec,
    Scene,
    SceneDistribution,
    sample_scene,
)
from .signals import (
    MultichannelSignal,
    SourceSignalConfig,
    add_noise,
    auralize,
    provide_source_signal_with_id,
)
from .training import FeatureExample, TrainConfig, train

__version__ = "0.1.0"
