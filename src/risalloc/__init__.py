"""risalloc: simulator and optimizer toolkit for surface-assisted mmWave
downlinks with fairness-aware element allocation.

Layers, bottom up: scenario config and street-canyon geometry, 3GPP UMi
pathloss and array-response channel synthesis, fairness metrics on the
cascaded link, feasible-set projections, a block-coordinate ascent solver,
an exhaustive oracle for toy sizes, a from-scratch MLP allocator with PCA
preprocessing, dataset persistence, and a CLI benchmark harness.
"""

from .allocation import (binarize, mrt_beamformers, project_feasible,
                         project_feasible_with_vjp, uniform_contiguous)
from .bcd import BcdOptions, BcdTrace, bcd_optimize, objective_value_and_gradients
from .brute import BudgetExceededError, brute_force, enumeration_count
from .channel import (ChannelSet, breakpoint_distance, pathloss_umi_los,
                      pathloss_umi_nlos, steering_vector_upa, synth_channels)
from .config import (ConfigError, ScenarioConfig, dbm_to_watts, desk_config,
                     full_scale_config)
from .dataio import (DatasetChecksumError, DatasetError, DatasetManifest,
                     DatasetTruncationError, DatasetVersionError, Sample,
                     generate_dataset, load_dataset, make_sample, sample_seed,
                     train_val_split)
from .features import PcaModel, feature_matrix, flatten_features, pca_fit, pca_transform
from .geometry import Deployment, deploy, deploy_blockages, deploy_ues, is_blocked
from .metrics import (RATE_FLOOR, Allocation, Beamformers, PhaseConfig,
                      alpha_mean_throughput, alpha_utility, expand_columns,
                      sum_utility, user_rates)
from .mlp import (AdamState, CheckpointError, MlpArch, MlpModel, adam_step,
                  first_layer_weight_count, init_adam, init_model,
                  load_checkpoint, mlp_backward, mlp_forward, param_views,
                  parameter_count, save_checkpoint)
from .training import (PlateauScheduler, TrainOptions, TrainResult, nn_loss,
                       nn_loss_and_grads, train)

__version__ = "0.1.0"
