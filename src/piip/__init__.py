"""Parameter-inverted image pyramid networks: model, cost model, explorer.

The package builds multi-resolution vision backbones where wider branches
see smaller inputs, connects them with gated deformable cross-attention,
and provides an analytic cost model plus a resolution-sweep explorer for
reasoning about parameter/FLOPs trade-offs without training anything.
"""

from .config import (
    Arch,
    AttentionImpl,
    AttentionKind,
    BranchSpec,
    ConfigError,
    InteractionSchedule,
    MergeMode,
    ParseError,
    ProjStyle,
    PyramidConfig,
    ValidationError,
    load_config,
    parse_config,
    preset,
    PRESET_NAMES,
    render_config,
    validate,
)
from .branches import FeatureMap
from .costmodel import CostReport, cost_report
from .model import AdamW, Forward, PiipModel

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "Arch",
    "AttentionImpl",
    "AttentionKind",
    "BranchSpec",
    "ConfigError",
    "CostReport",
    "FeatureMap",
    "Forward",
    "InteractionSchedule",
    "MergeMode",
    "ParseError",
    "PiipModel",
    "ProjStyle",
    "PyramidConfig",
    "PRESET_NAMES",
    "ValidationError",
    "cost_report",
    "load_config",
    "parse_config",
    "preset",
    "render_config",
    "validate",
    "__version__",
]
