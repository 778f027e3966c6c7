"""Command-line interface.

Subcommands:
  run       simulate `trials` frames at a single configuration
  sweep     grid over user counts and Pa/Pk ratios, write a CSV
  selftest  run the built-in invariant suites
  leakage   analytic equivocation report, no link simulation

Exit codes: 0 success, 1 selftest failure, 2 configuration error (from any
subcommand, selftest included), 3 I/O error, 4 a trial raised (the message
names the trial, the stage and the cause).
"""

import argparse
import sys
from dataclasses import replace
from functools import partial

from .config import ConfigError, SystemConfig, load_config
from .harness import (LEAKAGE_CSV_HEADER, TrialError, check_csv_path, emit_csv,
                      power_splits, run_leakage, run_point, run_sweep, selftest, write_csv)


def _entries(text: str, convert, kind: str) -> list:
    values = []
    for v in text.split(","):
        if not v.strip():
            raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
        try:
            values.append(convert(v))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid entry {v!r} in {text!r}: expected {kind}") from None
    return values


_int_list = partial(_entries, convert=int, kind="an integer")
_float_list = partial(_entries, convert=float, kind="a number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secure-ura",
        description="Monte Carlo link simulator for secure unsourced random access")
    sub = parser.add_subparsers(dest="command", required=True)
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", help="key=value config file")
    base.add_argument("--seed", type=int, help="override the master seed")
    counted = argparse.ArgumentParser(add_help=False)
    counted.add_argument("--trials", type=int, help="trials per grid point")

    p_run = sub.add_parser("run", parents=[base, counted],
                           help="simulate one configuration")
    p_run.add_argument("--out", help="optional CSV output path")

    p_sweep = sub.add_parser("sweep", parents=[base, counted],
                             help="run a (Ka, Pa/Pk) grid")
    p_sweep.add_argument("--ka", type=_int_list, default=[1, 25, 50, 75, 100],
                         help="comma-separated user counts")
    p_sweep.add_argument("--ratio", type=_float_list, default=[1, 2, 3, 5, 7],
                         help="comma-separated Pa/Pk ratios")
    p_sweep.add_argument("--out", required=True, help="CSV output path")

    sub.add_parser("selftest", parents=[base], help="run the invariant suites")

    p_leak = sub.add_parser("leakage", parents=[base, counted],
                            help="analytic equivocation report")
    p_leak.add_argument("--ratio", type=_float_list, default=None,
                        help="comma-separated Pa/Pk ratios (default: the config's split)")
    p_leak.add_argument("--out", help="optional CSV output path")

    return parser


def _load(args) -> SystemConfig:
    given = {k: v for k in ("seed", "trials") if (v := getattr(args, k, None)) is not None}
    cfg = replace(load_config(args.config), **given)
    # a run is refused before any trial: for its config or grid first, then its
    # --out, which sweep requires; to run and leakage an empty --out means no CSV
    power_splits(cfg, getattr(args, "ratio", None))
    for ka in getattr(args, "ka", ()):
        replace(cfg, Ka=ka)
    if args.command == "sweep" or getattr(args, "out", None):
        check_csv_path(args.out)
    return cfg


def _cmd_run(args, cfg: SystemConfig) -> int:
    res = run_point(cfg)
    print(f"ka={res.ka} pa={res.pa:.6g} pk={res.pk:.6g} trials={res.trials} "
          f"pupe={res.pupe_mean:.6g}±{res.pupe_stderr:.3g} "
          f"zeta_lower={res.zeta_lower_mean:.6g}")
    if args.out:
        emit_csv([res], args.out)
    return 0


def _cmd_sweep(args, cfg: SystemConfig) -> int:
    def progress(r):
        print(f"ka={r.ka} ratio={r.ratio:g} pupe={r.pupe_mean:.4g} "
              f"zeta_lower={r.zeta_lower_mean:.4g}", flush=True)
    results = run_sweep(cfg, args.ka, args.ratio, cfg.trials, progress)
    emit_csv(results, args.out)
    print(f"wrote {len(results)} rows to {args.out}")
    return 0


def _cmd_selftest(args, cfg: SystemConfig) -> int:
    return 0 if selftest(cfg) else 1


def _cmd_leakage(args, cfg: SystemConfig) -> int:
    rows = run_leakage(cfg, args.ratio)
    for ratio, pa, pk, zeta in rows:
        print(f"ratio={ratio:g} pa={pa:.6g} pk={pk:.6g} zeta_lower_mean={zeta:.6g}")
    if args.out:
        write_csv(args.out, LEAKAGE_CSV_HEADER, rows)
    return 0


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep,
             "selftest": _cmd_selftest, "leakage": _cmd_leakage}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _load(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except TrialError as exc:
        print(f"trial error: {exc}", file=sys.stderr)
        return 4


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
