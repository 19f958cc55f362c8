"""The benchmark's fixed solver workloads and their seeded configs.

Each workload is one experiment config run through the public run path
(``runner.execute``, plus ``runner.diagnose`` for ``record_diagnose``).
The seed moves the Barenblatt time offset ``t0`` of the initial density to
one of ``LEVELS`` points in a narrow band above its base value, so the same
seed always gives the same config and the reference outputs stored in
``reference.json`` cover every seed.
"""
from __future__ import annotations

from dataclasses import dataclass

LEVELS = 8
T0_BAND = 0.01  # relative width of the t0 band the seed picks from
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    solver: str  # "particle" or "jko"
    d: int
    m: float
    t0: float  # base Barenblatt time offset, before the seeded shift
    body: dict  # config keys besides the initial density and output_dir
    diagnose: bool = False

    def t0_for(self, level: int) -> float:
        return self.t0 * (1.0 + T0_BAND * level / (LEVELS - 1))

    def config(self, level: int, output_dir: str) -> dict:
        baren = {"kind": "barenblatt", "m": self.m, "t0": self.t0_for(level)}
        density = baren if self.d == 1 else {"kind": "product", "axes": [baren, baren]}
        return {
            **self.body,
            "energy": {"kind": "power", "m": self.m},
            "solver": self.solver,
            "initial": {"kind": "quantile", "density": density},
            "output_dir": output_dir,
        }


def _particle(family, eps, d, n, integrator, dt, steps, record_every):
    return {
        "kernel": {"family": family, "eps": eps, "d": d},
        "n_particles": n,
        "integrator": integrator,
        "dt": dt,
        "T": steps * dt,
        "record_every": record_every,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="blob1d_bump",
            why="1d bump RK4, N=400: time is kernel pair arithmetic; windowed evaluation and the bump cube should show here",
            solver="particle",
            d=1,
            m=1.5,
            t0=0.25,
            body=_particle("bump", 0.1, 1, 400, "rk4", 1.6e-4, 120, 40),
        ),
        Workload(
            name="blob2d_gauss",
            why="2d gaussian Heun, N=400: dense (N,G,d) tensors bound memory; the only per-snapshot assignment W2",
            solver="particle",
            d=2,
            m=2.0,
            t0=1.0,
            body=_particle("gaussian", 0.15, 2, 400, "heun", 1.5e-3, 1, 1),
        ),
        Workload(
            name="jko1d_gauss",
            why="1d JKO, N=128: thousands of small calls, so per-call overhead, grid rebuilds and line search dominate",
            solver="jko",
            d=1,
            m=2.0,
            t0=1.0,
            body={
                "kernel": {"family": "gaussian", "eps": 0.05, "d": 1},
                "n_particles": 128,
                "tau": 1e-3,
                "T": 0.06,
            },
        ),
        Workload(
            name="record_diagnose",
            why="1d Euler N=400 recorded every step, then diagnose: runner CSV IO and fields diagnostics are the bulk",
            solver="particle",
            d=1,
            m=2.0,
            t0=1.0,
            body=_particle("gaussian", 0.2, 1, 400, "euler", 0.004, 63, 1),
            diagnose=True,
        ),
    )
}


def level_for(seed: int) -> int:
    return seed % LEVELS
