"""Blob-method particle and minimizing-movement solvers for mollified
internal-energy gradient flows, with transport metrics, reference
solutions, and convergence diagnostics."""

import ctypes


def _set_heap_policy() -> None:
    """Keep freed heap memory for reuse instead of returning it to the system at once.

    glibc serves blocks of 128 KiB and more by mmap and trims a free heap top
    beyond 128 KiB, raising both thresholds only after the process frees a
    larger mmapped block.  The deposits' pair arrays (tens to hundreds of KiB,
    one set per velocity or energy call) would then be unmapped or trimmed
    after each call and faulted back in on the next, thousands of times per
    run.  This fixes the mmap threshold at 32 MiB, the ceiling of glibc's own
    dynamic threshold on 64-bit, and the trim threshold at 64 MiB, glibc's
    twice-the-mmap-threshold rule.  Where the C library has no mallopt it
    does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_set_heap_policy()

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
