"""Command-line interface.

Subcommands::

    fdrlink run <preset|config.json> [--seed N] [--reps N] [--out DIR] [--workers N]
    fdrlink bounds --n N --n0 N --pi0 X --alpha A [A ...] [--gamma G ...] [--out FILE]
    fdrlink check <matrix-file> [--nulls i,j,...]

The environment variable ``FDRLINK_SEED`` overrides the configured master
seed; an explicit ``--seed`` overrides both.

Exit codes: 0 success, 2 malformed config or input, 3 unknown preset, 4
unwritable output path, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dependence import mtp2_sign_check, prdn_check_gaussian, prds_check_gaussian
from .experiments import (
    ConfigError,
    OutputError,
    PRESETS,
    UnknownPresetError,
    bounds_table,
    load_config,
    load_matrix,
    write_csv,
    _is_existing_path,
    _render_csv,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_BAD_CONFIG = 2
EXIT_UNKNOWN_PRESET = 3
EXIT_UNWRITABLE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdrlink",
                                     description="FDR-under-dependence simulation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a named preset or a JSON config file")
    run_p.add_argument("target", help=f"preset name ({', '.join(sorted(PRESETS))}) "
                                      "or path to a config.json")
    run_p.add_argument("--seed", type=int, default=None, help="master seed override")
    run_p.add_argument("--reps", type=int, default=None, help="replication override")
    run_p.add_argument("--out", type=Path, default=None, help="output directory")
    run_p.add_argument("--workers", type=int, default=None,
                       help="most thread lanes (default: one per available CPU; lanes "
                            "run only on rows wider than 256 values; same values)")

    bounds_p = sub.add_parser("bounds", help="closed-form bound table as CSV")
    bounds_p.add_argument("--n", type=int, required=True)
    bounds_p.add_argument("--n0", type=int, required=True)
    bounds_p.add_argument("--pi0", type=float, default=None,
                          help="defaults to n0 / n")
    bounds_p.add_argument("--alpha", type=float, nargs="+", required=True)
    bounds_p.add_argument("--gamma", type=float, nargs="*", default=[])
    bounds_p.add_argument("--out", type=Path, default=None,
                          help="CSV file (stdout when omitted)")

    check_p = sub.add_parser("check", help="structural checks on a covariance file")
    check_p.add_argument("matrix", type=Path, help="dense whitespace-separated matrix")
    check_p.add_argument("--nulls", default=None,
                         help="comma-separated null indices (default: all)")
    return parser


def _cmd_run(args) -> int:
    overrides = {"master_seed": args.seed, "reps": args.reps,
                 "out_dir": args.out, "workers": args.workers}
    if args.target in PRESETS:
        cfg = load_config({"schema": 1, "preset": args.target}, overrides=overrides)
    elif _is_existing_path(args.target):
        cfg = load_config(Path(args.target), overrides=overrides)
    else:
        raise UnknownPresetError(
            f"{args.target!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor an existing config file")
    from .experiments import run

    for path in run(cfg):
        print(path)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if not args.n >= args.n0 >= 1:
        raise ConfigError(f"need n >= n0 >= 1, got n={args.n}, n0={args.n0}")
    pi0 = args.pi0 if args.pi0 is not None else args.n0 / args.n
    try:
        header, rows = bounds_table(args.n, args.n0, pi0, args.alpha, args.gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out is None:
        sys.stdout.write(_render_csv(header, rows))
    else:
        write_csv(args.out, header, rows)
        print(args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    sigma = load_matrix(args.matrix)
    dim = sigma.shape[0]
    if args.nulls is None:
        null_idx = list(range(dim))
    else:
        try:
            null_idx = [int(tok) for tok in args.nulls.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"--nulls must be comma-separated integers: {exc}") from exc
        if not null_idx or len(set(null_idx)) != len(null_idx) or \
                not all(0 <= i < dim for i in null_idx):
            raise ConfigError(f"--nulls must list distinct indices in 0..{dim - 1}, "
                              f"got {args.nulls!r}")
    prdn = prdn_check_gaussian(sigma, null_idx)
    prds = prds_check_gaussian(sigma, null_idx)
    block = sigma[np.ix_(null_idx, null_idx)]
    try:
        signs = mtp2_sign_check(block)
    except ValueError as exc:  # a singular null block has no inverse to sign
        raise ConfigError(f"null block of {args.matrix}: {exc}") from exc
    print(f"matrix: {args.matrix} (n={dim}, n0={len(null_idx)})")
    print(f"prdn_one_sided: {prdn}")
    print(f"prds_one_sided: {prds}")
    if signs is None:
        print("mtp2_two_sided: infeasible")
    else:
        print("mtp2_two_sided: feasible "
              + "".join("+" if s > 0 else "-" for s in signs))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        return _cmd_check(args)
    except UnknownPresetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_PRESET
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
