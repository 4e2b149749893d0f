"""Low-rank adapter optimization via alternating least-squares updates."""

from .errors import (
    ConfigError, ConvergenceError, DegenerateInputError, DensePolicyError,
    NonFiniteError, OploraError, ReportError, ShapeError, SingularMetricError,
    StaleCaptureError, SweepError,
)
from .lowrank import FactorPair, gram, product_distance, truncated_svd
from .lorsum import Metric, apply_inverse_metric, apply_metric_gram, lorsum
from .optim import (
    AdamwState, OploraConfig, OploraState, ProjMomentumState, SgdState,
    SvdLoraState, adamw_step, kfac_scale_update, momentum_update_lor,
    momentum_update_proj, oplora_step, prec_lora_step, proj_lora_step,
    sgd_step, svdlora_step,
)
from .nets import LinearTask, LoraLinear, MlpTask, linear_task_grad, \
    mlp_forward_backward

__version__ = "0.1.0"
