"""Online Bayesian experiment design for NV-center Hamiltonian learning."""

from .harness import RunConfig, run_comparison, run_trial
from .heuristics import make_heuristic
from .lab import InProcessLab, LabClient, LabServer, TrueSystem
from .measurement import Datum, ReferenceRates
from .qutrit import ExperimentConfig, SpinParams, survival_probability
from .risk import draw_shared, mis_risk, risk_profile
from .smc import ModelParameters, ParticleCloud, PriorSpec, sample_prior

__version__ = "0.1.0"

__all__ = [
    "Datum",
    "ExperimentConfig",
    "InProcessLab",
    "LabClient",
    "LabServer",
    "ModelParameters",
    "ParticleCloud",
    "PriorSpec",
    "ReferenceRates",
    "RunConfig",
    "SpinParams",
    "TrueSystem",
    "draw_shared",
    "make_heuristic",
    "mis_risk",
    "risk_profile",
    "run_comparison",
    "run_trial",
    "sample_prior",
    "survival_probability",
]
