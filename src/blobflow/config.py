"""Experiment configuration: JSON schema, validation, object construction.

Each section is the keyword arguments of the object it configures, so
validation builds those objects and reports whatever they raise.  It is
all-at-once: every violation found is reported in a single ConfigError so a
config can be fixed in one pass.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field as dc_field, replace
from pathlib import Path

from .energy import EnergyModel
from .errors import ConfigError
from .grids import QuadratureSpec
from .jko import validate_tau
from .kernels import MollifierSpec
from .particles import INTEGRATORS, initial_sampler, step_plan
from .reference import BarenblattProfile, GaussianDensity, ProductDensity, UniformDensity

OUTPUT_ROOT_ENV = "BLOBFLOW_OUTPUT_ROOT"
ENERGY_DEFAULTS = {"kind": "power", "m": 2.0}
# the top-level keys only one solver reads; a config for the other solver must leave them at their defaults
SOLVER_KEYS = {"particle": ("dt", "integrator", "record_every"), "jko": ("tau",)}


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
    _sample = (None, None)  # (the sections it was drawn from, as repr, the initial ensemble); not a config key

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
        """Build the run's own objects and report everything they reject, plus the top-level checks."""
        errors = []

        def build(label, make):
            try:
                return make()
            except Exception as exc:
                errors.append(f"{label}: {exc}")

        kernel = build("kernel", self.kernel_spec)
        model = build("energy", self.energy_model)
        quad = build("quadrature", self.quadrature_spec)
        # a barenblatt without its own m takes the energy section's; when that section is
        # already reported, check the initial section against the default m instead
        initial = self if model is not None else replace(self, energy=ENERGY_DEFAULTS)
        ens = build("initial", initial.initial_ensemble)
        if kernel is not None and model is not None:
            if model.kind == "entropy" and kernel.family == "bump":
                errors.append(
                    "energy: the entropy integrand needs a strictly positive mollified "
                    "density; pair it with the gaussian family"
                )
        if kernel is not None and ens is not None and ens.d != kernel.d:
            errors.append(f"initial: density dimension {ens.d} does not match kernel d={kernel.d}")
        if kernel is not None and quad is not None and quad.domain is not None and len(quad.domain) != kernel.d:
            errors.append(f"quadrature: domain gives {len(quad.domain)} axes, kernel d={kernel.d}")
        if self.solver not in SOLVER_KEYS:
            errors.append(f"solver: unknown solver {self.solver!r}")
        else:
            errors += [
                f"{key}: only the {owner} solver reads it; leave it out of a {self.solver} config"
                for owner, keys in SOLVER_KEYS.items() if owner != self.solver
                for key in keys if getattr(self, key) != self.__dataclass_fields__[key].default
            ]
        if not (isinstance(self.n_particles, int) and self.n_particles >= 1):
            errors.append(f"n_particles: need a positive integer, got {self.n_particles!r}")
        horizon_ok = build("T", lambda: self.T > 0)
        if horizon_ok is False:
            errors.append(f"T: horizon must be positive, got {self.T}")
        if self.solver != "jko":
            if self.integrator not in INTEGRATORS:
                errors.append(f"integrator: choose from {INTEGRATORS}, got {self.integrator!r}")
            if not (isinstance(self.record_every, int) and self.record_every >= 1):
                errors.append(f"record_every: need a positive integer, got {self.record_every!r}")
            elif self.solver == "particle" and horizon_ok and kernel is not None and model is not None:
                build("steps", lambda: step_plan(self.T, self.dt, self.record_every, kernel, model))
        else:
            if kernel is not None and kernel.d != 1:
                errors.append("solver: the minimizing-movement solver is one-dimensional")
            if self.tau is None:
                errors.append("tau: required for the jko solver")
            elif model is not None:
                build("tau", lambda: validate_tau(self.tau, model, 1))
        if self.sweep is not None:
            if not isinstance(self.sweep, dict):
                errors.append("sweep: need an object with 'eps' and/or 'n_particles' lists")
            else:
                for key in self.sweep:
                    if key not in ("eps", "n_particles"):
                        errors.append(f"sweep: unknown sweep key {key!r}")
                    elif not isinstance(self.sweep[key], list) or not self.sweep[key]:
                        errors.append(f"sweep: {key} must be a nonempty list")
                    else:  # each value is one rung and names its run directory; name each repeat once
                        vals = self.sweep[key]
                        errors += [f"sweep: {key} lists {v!r} more than once"
                                   for i, v in enumerate(vals) if v in vals[:i] and v not in vals[i + 1:]]
        if errors:
            raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(errors))

    # -- object construction: each section is one constructor's arguments ----

    def kernel_spec(self) -> MollifierSpec:
        return MollifierSpec(**{"family": "gaussian", "d": 1, **self.kernel})

    def energy_model(self) -> EnergyModel:
        return EnergyModel(**{**ENERGY_DEFAULTS, **self.energy})

    def quadrature_spec(self) -> QuadratureSpec:
        return QuadratureSpec(**(self.quadrature or {}))

    def initial_density(self):
        spec = self.initial.get("density", {"kind": "uniform"})
        return build_density(spec, self.energy.get("m", ENERGY_DEFAULTS["m"]))

    def initial_ensemble(self):
        """The start the ``initial`` section places, sampled once: validation samples it and the run reuses it.

        A sample is kept with the sections it was drawn from, as they read
        then; a config whose ``initial``, ``n_particles`` or ``energy`` has
        changed since samples afresh.
        """
        drawn_from = repr((self.initial, self.n_particles, self.energy))
        if self._sample[0] != drawn_from:
            sampler = {"kind": "quantile", **self.initial, "density": self.initial_density()}
            self._sample = (drawn_from, initial_sampler(n=self.n_particles, **sampler))
        return self._sample[1]

    def resolved_output_dir(self) -> Path:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        out = Path(self.output_dir)
        if root and not out.is_absolute():
            return Path(root) / out
        return out


DENSITIES = {
    "uniform": UniformDensity,
    "gaussian": GaussianDensity,
    "barenblatt": BarenblattProfile,
    "product": ProductDensity,
}


def build_density(spec: dict, default_m: float):
    """The density class ``kind`` names, called with the section's other keys; ``axes`` are sections too."""
    args = dict(spec)
    kind = args.pop("kind", "uniform")
    if kind not in DENSITIES:
        raise ConfigError(f"unknown density kind {kind!r}; choose from {sorted(DENSITIES)}")
    if kind == "barenblatt":  # one-dimensional: a product of two gives d = 2
        return BarenblattProfile(d=1, **{"m": default_m, **args})
    if kind == "product" and isinstance(args.get("axes"), list):
        args["axes"] = tuple(build_density(a, default_m) for a in args["axes"])
    return DENSITIES[kind](**args)
