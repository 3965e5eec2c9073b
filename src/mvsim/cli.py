"""Command line front end.

Subcommands: ``run`` (all configured methods), ``fp`` / ``malliavin`` (run a
config restricted to that single method), ``presets`` (table of shipped
presets), ``check-ellipticity`` (sampled spectrum floor of a preset's
diffusion).  Exit codes: 0 success, 1 a method failed hard, 2 bad config or
usage.  The run subcommands take two flags: --seed replaces the config
document's ``seed`` (and is checked as that key), and --outdir names the
output directory, by default ``run_experiment``'s.  A run reads no environment
variable.
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from .coefficients import check_ellipticity
from .errors import ConfigError, MvsimError
from .harness import list_presets, read_config, run_experiment
from .presets import get_preset


def _add_run_flags(p: argparse.ArgumentParser, only: str | None = None) -> None:
    p.set_defaults(handler=lambda args: _cmd_run(args, only))
    p.add_argument("config", help="path to a JSON experiment config")
    p.add_argument("--seed", type=int, default=None,
                   help="replace the config's seed")
    outdir = inspect.signature(run_experiment).parameters["outdir"].default
    p.add_argument("--outdir", default=outdir,
                   help="output directory root (default: ./%(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvsim",
        description="Mean-field SDE simulation and density cross-validation")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_flags(sub.add_parser("run", help="run every method in the config"))
    _add_run_flags(sub.add_parser("fp", help="run only the density solver"), "fp")
    _add_run_flags(sub.add_parser(
        "malliavin", help="run only the first-variation diagnostics"), "malliavin")

    sub.add_parser("presets", help="list shipped presets").set_defaults(handler=_cmd_presets)

    pe = sub.add_parser("check-ellipticity",
                        help="sample the diffusion spectrum floor of a preset")
    pe.add_argument("preset")
    pe.add_argument("--samples", type=int, default=4096)
    pe.add_argument("--seed", type=int, default=0)
    pe.set_defaults(handler=_cmd_check_ellipticity)
    return parser


def _print_report(report: dict) -> None:
    name = report["preset"]["name"]
    for method in sorted(report["methods"]):
        frag = report["methods"][method]
        line = f"{name}/{method}: {frag['status']}"
        if frag["status"] != "ok":
            line += f" ({frag.get('error', 'unknown error')})"
        print(line)
    for tkey in sorted(report["comparisons"]):
        entry = report["comparisons"][tkey]
        parts = " ".join(f"{k}={entry[k]:.6g}" for k in sorted(entry))
        print(f"  {tkey}: {parts}")


def _cmd_run(args, only: str | None = None) -> int:
    try:
        config = read_config(args.config)
        if only is not None:
            config["methods"] = [only]
        if args.seed is not None:
            config["seed"] = args.seed
        report = run_experiment(config, outdir=args.outdir)
    except ConfigError as e:
        where = f" at {e.field_path}" if e.field_path else ""
        print(f"config error{where}: {e}", file=sys.stderr)
        return 2
    _print_report(report)
    failed = [m for m, frag in report["methods"].items() if frag["status"] != "ok"]
    return 1 if failed else 0


def _cmd_presets(args) -> int:
    for row in list_presets():
        defaults = " ".join(f"{k}={v:g}" for k, v in row["defaults"].items())
        print(f"{row['name']:18s} d={row['dimension']} T={row['horizon']:g}  "
              f"{row['summary']}")
        print(f"{'':18s} defaults: {defaults}")
    return 0


def _cmd_check_ellipticity(args) -> int:
    for flag, value, least in (("--samples", args.samples, 1), ("--seed", args.seed, 0)):
        if value < least:
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return 2
    try:
        inst = get_preset(args.preset)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    lo = np.array([b[0] for b in inst.fp_domain])
    hi = np.array([b[1] for b in inst.fp_domain])
    rep = check_ellipticity(inst.model, (0.0, inst.horizon), (lo, hi),
                            n=args.samples, seed=args.seed)
    print(f"preset {inst.name}: sampled lambda_min = {rep.lambda_min_estimate:.6g} "
          f"over {rep.n_samples} points")
    print(f"  argmin: t={rep.argmin_t:.4g} x={np.array2string(rep.argmin_x, precision=4)}")
    nominal = inst.ellipticity_lambda
    print(f"  nominal floor: {nominal if nominal is not None else 'none declared'}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except MvsimError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
