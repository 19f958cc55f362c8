#!/usr/bin/env python3
"""Energy decay and dissipation bookkeeping along a minimizing-movement chain.

Runs the proximal scheme on quantile initial data and prints the per-step
energy, transport increment, and flow-interchange term; every field of
each step record lands in jko_steps.csv under --out.
"""
import argparse

from blobflow.config import ExperimentConfig
from blobflow.jko import flow_interchange_diagnostic
from blobflow.runner import execute


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=float, default=2.0)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--tau", type=float, default=1e-3)
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--n-particles", type=int, default=64)
    ap.add_argument("--out", default="runs/jko_decay")
    args = ap.parse_args()

    cfg = ExperimentConfig.from_dict(
        {
            "kernel": {"family": "gaussian", "eps": args.eps, "d": 1},
            "energy": {"kind": "power", "m": args.m} if args.m > 1 else {"kind": "entropy"},
            "solver": "jko",
            "n_particles": args.n_particles,
            "T": args.steps * args.tau,
            "tau": args.tau,
            "initial": {"kind": "quantile", "density": {"kind": "uniform", "a": 0.0, "b": 1.0}},
            "output_dir": args.out,
        }
    )
    result = execute(cfg)
    chain = result.chain
    print(f"{'n':>4} {'energy':>12} {'dW^2':>12} {'entropy':>12} {'D_n':>12}")
    for r in chain.records:
        print(f"{r.n:>4} {r.energy:>12.8f} {r.dw2:>12.3e} {r.entropy:>12.6f} {r.fi_term:>12.3e}")
    rep = flow_interchange_diagnostic(chain)
    print(f"\nsum D_n = {rep.sum_d:.6f}   scaled entropy drop = {rep.entropy_drop_scaled:.6f}")
    print(f"ratio = {rep.ratio:.3f}   solver-quality warning = {rep.solver_quality_warning}")
    print(f"total dW^2 = {chain.total_dw2():.3e}  (budget {chain.dw2_budget():.3e})")
    print(f"artifacts: {result.directory}")


if __name__ == "__main__":
    main()
