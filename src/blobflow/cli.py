"""Command-line experiment harness.

Subcommands: simulate, jko, diagnose, compare, reference, converge, accept.
Exit code 0 only when the run completed and every invariant asserted during
it passed.  Output directories resolve against $BLOBFLOW_OUTPUT_ROOT when
set and the configured path is relative.
"""
from __future__ import annotations

import argparse
import json
import sys

from .acceptance import CRITERIA
from .config import ExperimentConfig
from .errors import ConfigError
from .runner import compare_trajectories, converge, diagnose, emit_reference, execute

REFERENCE_OPTIONS = ("m", "t0", "t", "mass", "sigma2", "spacing")


def _load_config(path, solver=None) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(path)
    if solver and cfg.solver != solver:
        raise ConfigError(f"config selects solver {cfg.solver!r}; this subcommand runs {solver!r}")
    return cfg


def _cmd_run(args, solver):
    cfg = _load_config(args.config, solver)
    result = execute(cfg)
    print(json.dumps({"directory": str(result.directory), "status": result.manifest["status"],
                      "invariants": result.manifest.get("invariants", {})}, indent=2, default=float))
    return 0 if result.ok else 1


def _cmd_diagnose(args):
    given = {"family": args.phi_family, "center": args.phi_center, "width": args.phi_width}
    paths = diagnose(args.run_dir, {k: v for k, v in given.items() if v is not None})
    print(json.dumps(paths, indent=2))
    return 0


def _cmd_compare(args):
    rows = compare_trajectories(args.trajectory_a, args.trajectory_b, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_reference(args):
    emit_reference(args.kind, args.out, **{k: v for k, v in vars(args).items() if k in REFERENCE_OPTIONS})
    print(f"wrote {args.out}")
    return 0


def _cmd_converge(args):
    cfg = _load_config(args.config)
    out = converge(cfg, threads=args.threads)
    print(json.dumps({"report": out["report"], "summary": out["summary"]}, indent=2))
    return 0


def _cmd_accept(args):
    ids = sorted(CRITERIA) if args.criterion == "all" else [int(args.criterion)]
    results = [CRITERIA[cid]() for cid in ids]
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blobflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the blob particle solver from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=lambda a: _cmd_run(a, "particle"))

    p = sub.add_parser("jko", help="run the minimizing-movement solver from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=lambda a: _cmd_run(a, "jko"))

    p = sub.add_parser("diagnose", help="error-term and weak-form suites on a stored run")
    p.add_argument("run_dir")
    p.add_argument("--phi-family", default="gaussian_bump", choices=["gaussian_bump", "poly_bump"])
    p.add_argument("--phi-center", type=float, nargs="+", default=None, help="one coordinate per axis")
    p.add_argument("--phi-width", type=float, default=None)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("compare", help="distance-vs-time table between two trajectories")
    p.add_argument("trajectory_a")
    p.add_argument("trajectory_b")
    p.add_argument("--out", default="compare.csv")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("reference", help="sample a reference profile to CSV")
    p.add_argument("--kind", required=True, choices=["barenblatt", "heat"])
    p.add_argument("--out", required=True)
    for name in REFERENCE_OPTIONS:  # an option left out takes emit_reference's default
        p.add_argument(f"--{name}", type=float, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_reference)

    p = sub.add_parser("converge", help="eps/N sweep against the analytic reference")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("accept", help="run acceptance criteria")
    p.add_argument("--criterion", default="all", choices=["all", *map(str, sorted(CRITERIA))],
                   help="criterion id or 'all'")
    p.set_defaults(func=_cmd_accept)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surfaced, not swallowed: runs record partials
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
