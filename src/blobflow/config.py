"""Experiment configuration: JSON schema, validation, object construction.

Validation is all-at-once: every violation found is reported in a single
ConfigError so a config can be fixed in one pass.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .energy import EnergyModel
from .errors import ConfigError
from .grids import QuadratureSpec
from .jko import tau_cap
from .kernels import MollifierSpec
from .particles import INTEGRATORS, stable_dt, step_count
from .reference import BarenblattProfile, GaussianDensity, ProductDensity, UniformDensity

OUTPUT_ROOT_ENV = "BLOBFLOW_OUTPUT_ROOT"


@dataclass
class ExperimentConfig:
    kernel: dict
    energy: dict
    solver: str = "particle"
    n_particles: int = 100
    T: float = 0.1
    dt: float | None = None
    tau: float | None = None
    integrator: str = "rk4"
    record_every: int = 1
    initial: dict = dc_field(default_factory=lambda: {"kind": "quantile", "density": {"kind": "uniform"}})
    quadrature: dict = dc_field(default_factory=dict)
    output_dir: str = "run"
    sweep: dict | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        errors = []
        kernel = model = None
        try:
            kernel = self.kernel_spec()
        except Exception as exc:
            errors.append(f"kernel: {exc}")
        try:
            model = self.energy_model()
        except Exception as exc:
            errors.append(f"energy: {exc}")
        if kernel is not None and model is not None:
            if model.kind == "entropy" and kernel.family == "bump":
                errors.append(
                    "energy: the entropy integrand needs a strictly positive mollified "
                    "density; pair it with the gaussian family"
                )
        if self.solver not in ("particle", "jko"):
            errors.append(f"solver: unknown solver {self.solver!r}")
        if not (isinstance(self.n_particles, int) and self.n_particles >= 1):
            errors.append(f"n_particles: need a positive integer, got {self.n_particles!r}")
        if not self.T > 0:
            errors.append(f"T: horizon must be positive, got {self.T}")
        if self.integrator not in INTEGRATORS:
            errors.append(f"integrator: choose from {INTEGRATORS}, got {self.integrator!r}")
        if not (isinstance(self.record_every, int) and self.record_every >= 1):
            errors.append(f"record_every: need a positive integer, got {self.record_every!r}")
        if self.solver == "particle" and kernel is not None and model is not None:
            dt = self.dt if self.dt is not None else stable_dt(kernel, model)
            if dt <= 0:
                errors.append(f"dt: must be positive, got {dt}")
            elif self.T > 0 and isinstance(self.record_every, int) and self.record_every >= 1:
                n_steps = step_count(self.T, dt)
                if n_steps % self.record_every:
                    errors.append(
                        f"record_every: {self.record_every} does not divide the {n_steps} steps"
                    )
        if self.solver == "jko":
            if kernel is not None and kernel.d != 1:
                errors.append("solver: the minimizing-movement solver is one-dimensional")
            if self.tau is None:
                errors.append("tau: required for the jko solver")
            elif model is not None:
                cap = tau_cap(model, 1)
                if not 0 < self.tau <= cap:
                    errors.append(
                        f"tau: {self.tau} violates the admissible-step cap; need 0 < tau <= {cap:.6g}"
                    )
        density = None
        try:
            density = self.initial_density()
        except Exception as exc:
            errors.append(f"initial: {exc}")
        if self.initial.get("kind", "quantile") not in ("quantile", "uniform_grid"):
            errors.append(f"initial: unknown sampler kind {self.initial.get('kind')!r}")
        if density is not None and kernel is not None:
            density_d = 2 if getattr(density, "axes", None) is not None else 1
            if density_d != kernel.d:
                errors.append(
                    f"initial: density dimension {density_d} does not match kernel d={kernel.d}"
                )
            if density_d == 2:
                side = int(round(np.sqrt(self.n_particles)))
                if side * side != self.n_particles:
                    errors.append(
                        f"n_particles: product initial data needs a perfect square, got {self.n_particles}"
                    )
        try:
            self.quadrature_spec()
        except Exception as exc:
            errors.append(f"quadrature: {exc}")
        if self.sweep is not None:
            if not isinstance(self.sweep, dict):
                errors.append("sweep: need an object with 'eps' and/or 'n_particles' lists")
            else:
                for key in self.sweep:
                    if key not in ("eps", "n_particles"):
                        errors.append(f"sweep: unknown sweep key {key!r}")
                    elif not isinstance(self.sweep[key], list) or not self.sweep[key]:
                        errors.append(f"sweep: {key} must be a nonempty list")
        if errors:
            raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(errors))

    # -- object construction -------------------------------------------------

    def kernel_spec(self, eps: float | None = None) -> MollifierSpec:
        k = dict(self.kernel)
        if eps is not None:
            k["eps"] = eps
        return MollifierSpec(family=k.get("family", "gaussian"), d=int(k.get("d", 1)), eps=float(k["eps"]))

    def energy_model(self) -> EnergyModel:
        return EnergyModel(kind=self.energy.get("kind", "power"), m=float(self.energy.get("m", 2.0)))

    def quadrature_spec(self) -> QuadratureSpec:
        q = dict(self.quadrature or {})
        if q.get("domain") is not None:
            q["domain"] = tuple(map(tuple, q["domain"]))
        return QuadratureSpec(**q)  # an unknown key is a TypeError naming it

    def initial_density(self):
        spec = dict(self.initial.get("density", {"kind": "uniform"}))
        return build_density(spec, default_m=float(self.energy.get("m", 2.0)))

    def initial_ensemble(self, n: int | None = None):
        from .particles import initial_sampler

        return initial_sampler(
            self.initial.get("kind", "quantile"),
            self.initial_density(),
            n or self.n_particles,
        )

    def resolved_output_dir(self) -> Path:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        out = Path(self.output_dir)
        if root and not out.is_absolute():
            return Path(root) / out
        return out


def build_density(spec: dict, default_m: float = 2.0):
    kind = spec.get("kind", "uniform")
    if kind == "uniform":
        return UniformDensity(a=float(spec.get("a", 0.0)), b=float(spec.get("b", 1.0)))
    if kind == "gaussian":
        return GaussianDensity(sigma2=float(spec.get("sigma2", 1.0)), center=float(spec.get("center", 0.0)))
    if kind == "barenblatt":
        return BarenblattProfile(
            m=float(spec.get("m", default_m)),
            d=1,
            mass=float(spec.get("mass", 1.0)),
            t0=float(spec.get("t0", 1.0)),
        )
    if kind == "product":
        axes = spec.get("axes")
        if not isinstance(axes, list) or len(axes) != 2:
            raise ConfigError("product density needs exactly two axis densities")
        return ProductDensity(axes=tuple(build_density(a, default_m) for a in axes))
    raise ConfigError(f"unknown density kind {kind!r}")
