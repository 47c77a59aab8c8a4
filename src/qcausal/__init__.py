"""Simulation, witnessing, classification and tomography of causal relations
between two time-ordered qubits, including quantum-coherent mixtures of
cause-effect and common-cause mechanisms."""

from .causal import CausalChoi, build_scenario
from .quantum import DensityOperator
from .tomography import CountTable, FitConfig, fit_causal_map, sample_counts
from .witness import Thresholds, WitnessReport, classify

__version__ = "0.1.0"

__all__ = [
    "CausalChoi",
    "CountTable",
    "DensityOperator",
    "FitConfig",
    "Thresholds",
    "WitnessReport",
    "__version__",
    "build_scenario",
    "classify",
    "fit_causal_map",
    "sample_counts",
]
