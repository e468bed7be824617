"""Structured compressive channel estimation for hybrid mmWave arrays."""

__version__ = "0.1.0"

from .channel import SystemConfig
from .simulate import ber_experiment, run_trial
