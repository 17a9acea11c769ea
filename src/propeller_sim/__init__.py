"""Classical and quantum simulation of laser-driven unidirectional molecular rotation."""

__version__ = "0.1.0"

from .core import (IntegrationError, MoleculeParams, ParameterError,
                   ProtocolError, PulseSpec, TruncationError, benzene, nitrogen,
                   revival_time, sigma_th)
from .ensemble import EnsembleConfig, TimeSeries, delay_scan, run_protocol

__all__ = [
    "IntegrationError", "MoleculeParams", "ParameterError",
    "ProtocolError", "PulseSpec", "TruncationError",
    "benzene", "nitrogen", "revival_time", "sigma_th",
    "EnsembleConfig", "TimeSeries", "delay_scan", "run_protocol",
    "__version__",
]
