"""Blob-method particle and minimizing-movement solvers for mollified
internal-energy gradient flows, with transport metrics, reference
solutions, and convergence diagnostics."""

from .energy import EnergyModel, regularized_energy
from .grids import Grid, GridField, QuadratureSpec
from .jko import JkoChain, JkoState, boltzmann_entropy, run_jko
from .kernels import KernelMoments, MollifierSpec, kernel_moments
from .particles import ParticleEnsemble, Trajectory, initial_sampler, simulate, velocity
from .reference import BarenblattProfile, fd_pme_oracle, heat_solution, lambda_convexity
from .transport import m2, w1_1d, w2

__version__ = "0.1.0"

__all__ = [
    "BarenblattProfile",
    "EnergyModel",
    "Grid",
    "GridField",
    "JkoChain",
    "JkoState",
    "KernelMoments",
    "MollifierSpec",
    "ParticleEnsemble",
    "QuadratureSpec",
    "Trajectory",
    "boltzmann_entropy",
    "fd_pme_oracle",
    "heat_solution",
    "initial_sampler",
    "kernel_moments",
    "lambda_convexity",
    "m2",
    "regularized_energy",
    "run_jko",
    "simulate",
    "velocity",
    "w1_1d",
    "w2",
]
