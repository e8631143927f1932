"""mmsentry: millimeter-wave burst simulation, range-Doppler DSP, a
from-scratch attention classifier for concealed-metal detection, and the
streaming plumbing to run it live."""

from .radar_core import ConfigError, RadarConfig, RawBurst, ARDFrame

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "RadarConfig",
    "RawBurst",
    "ARDFrame",
    "__version__",
]
