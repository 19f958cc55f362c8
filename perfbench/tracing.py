"""Span and count recorder wrapped around blobflow's module boundaries.

Tracing is done from outside the package: ``install`` replaces each public
function of every layer module, wherever a blobflow module bound it by
name (``velocity_on_grid`` lives in the ``particles``, ``jko`` and
``fields`` namespaces), with a wrapper that records a span.  A span is
``[name, start, end, parent, info]``; ``parent`` is the index of the span
that was open when this one started, and ``info`` holds what a probe read
off the call (pairs evaluated, grid nodes, inner iterations).  Spans stay
in memory; ``layer_metrics`` reduces them when the run is over.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("kernels", "grids", "energy", "particles", "jko", "transport", "fields", "runner", "reference")

# Private helpers whose calls are counters in their own right (JKO
# objective evaluations and line-search trials); everything else wrapped
# is public.
PRIVATE = {"jko": ("_objective", "_minimise_on_grid")}

METHODS = (
    ("grids", "QuadratureSpec", "grid_for"),
    ("energy", "EnergyModel", "f_prime"),
    ("reference", "BarenblattProfile", "cdf_inverse"),
    ("reference", "BarenblattProfile", "quantile_ensemble"),
)


def _pairs_probe(args, kwargs, out):
    diff = args[1] if len(args) > 1 else kwargs["diff"]
    shape = np.shape(diff)
    return (int(np.prod(shape[:-1])), int(np.prod(shape)) * 8)


PROBES = {
    "kernels.value_on_pairs": _pairs_probe,
    "kernels.grad_on_pairs": _pairs_probe,
    "grids.QuadratureSpec.grid_for": lambda a, k, out: int(np.prod(out.shape)),
    "jko.jko_step": lambda a, k, out: int(out[1].inner_iterations),
}


class Recorder:
    """Keeps spans of one traced run in memory; single-threaded use only."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.active = False

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if probe is not None:
                span[4] = probe(args, kwargs, out)
            return out

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every layer function and method, wherever blobflow bound it."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"blobflow.{layer}")
        for name, obj in vars(mod).items():
            public = not name.startswith("_") or name in PRIVATE.get(layer, ())
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                wrapped[obj] = recorder.wrap(f"{layer}.{name}", obj)
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"blobflow.{layer}"), cls_name)
        setattr(cls, meth, recorder.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "blobflow" and not mod_name.startswith("blobflow."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])


def tail(samples) -> float:
    """Highest order statistic with at least ten samples beyond it, else the max."""
    s = sorted(samples)
    return float(s[len(s) - 11] if len(s) > 20 else s[-1])


def layer_metrics(spans: list) -> dict:
    """Reduce one run's spans to the per-layer metrics (counts and seconds)."""
    n = len(spans)
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans], dtype=float)
    parent = [s[3] for s in spans]
    child_time = np.zeros(n)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += dur[i]
    self_time = dur - child_time

    def ancestors(i):
        p = parent[i]
        while p >= 0:
            yield p
            p = parent[p]

    def select(*fns):
        return [i for i, nm in enumerate(names) if nm in fns]

    def incl(*fns):
        """Inclusive time of the outermost spans of the given functions."""
        return float(sum(dur[i] for i in select(*fns) if not any(names[a] in fns for a in ancestors(i))))

    def count(*fns):
        return len(select(*fns))

    def under(i, fn):
        return next((a for a in ancestors(i) if names[a] == fn), None)

    pairs = [spans[i][4] for i in select("kernels.value_on_pairs", "kernels.grad_on_pairs")]
    nodes = [spans[i][4] for i in select("grids.QuadratureSpec.grid_for")]
    jko_steps = select("jko.jko_step")
    # Per inner solve: one objective evaluation before the loop, then one per
    # line-search trial; one velocity call per iteration, and every
    # iteration but the last accepted a trial.
    n_solves = count("jko._minimise_on_grid")
    trials = sum(1 for j in select("jko._objective") if parent[j] >= 0 and names[parent[j]] == "jko._minimise_on_grid") - n_solves
    accepted = sum(1 for j in select("particles.velocity_on_grid") if under(j, "jko._minimise_on_grid") is not None) - n_solves
    grid_in_jko = sum(1 for i in select("grids.QuadratureSpec.grid_for") if under(i, "jko.jko_step") is not None)
    w2_fns = [nm for nm in set(names) if nm.startswith("transport.w2")]

    out = {
        "kernels.pair_evals": sum(p for p, _ in pairs),
        "kernels.value_s": float(sum(self_time[i] for i in select("kernels.value_on_pairs"))),
        "kernels.grad_s": float(sum(self_time[i] for i in select("kernels.grad_on_pairs"))),
        "kernels.pair_bytes_max": max((b for _, b in pairs), default=0),
        "grids.grid_for_calls": len(nodes),
        "grids.grid_for_s": incl("grids.QuadratureSpec.grid_for"),
        "grids.nodes_max": max(nodes, default=0),
        "energy.density_s": incl("energy.mollified_density"),
        "energy.energy_on_grid_calls": count("energy.energy_on_grid"),
        "energy.energy_on_grid_s": incl("energy.energy_on_grid"),
        "energy.f_prime_s": incl("energy.EnergyModel.f_prime"),
        "particles.velocity_calls": count("particles.velocity_on_grid"),
        "particles.velocity_s": incl("particles.velocity_on_grid"),
        "jko.steps": len(jko_steps),
        "jko.step_s": incl("jko.jko_step"),
        "jko.inner_iterations": sum(spans[i][4] for i in jko_steps),
        "jko.objective_evals": count("jko._objective"),
        "jko.accept_ratio": accepted / trials if trials > 0 else 0.0,
        "jko.grid_retries": grid_in_jko - len(jko_steps),
        "transport.w2_calls": count(*w2_fns),
        "transport.w2_s": incl(*w2_fns),
        "fields.error_term_s": incl("fields.error_term_z"),
        "fields.weak_residual_s": incl("fields.weak_form_residual"),
        "fields.local_residual_s": incl("fields.local_weak_form_residual"),
        "fields.mollify_s": incl("fields.mollify", "fields.mollify_auto"),
        "runner.write_s": incl("runner.write_trajectory_csv", "runner.write_diagnostics_csv"),
        "runner.read_s": incl("runner.read_trajectory_csv"),
        "reference.quantile_s": incl("reference.BarenblattProfile.cdf_inverse", "reference.BarenblattProfile.quantile_ensemble"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(self_time[i] for i, nm in enumerate(names) if nm.startswith(layer + ".")))
    return out


def step_samples(spans: list) -> list:
    """Inclusive seconds of every particle integrator step."""
    return [s[2] - s[1] for s in spans if s[0] == "particles.step"]
