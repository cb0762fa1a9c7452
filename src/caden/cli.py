"""Command-line entry point: run experiments, sweep grids, verify invariants.

``caden sweep`` runs ``harness.sweep`` once per grid flag given
(participation first).  Its flag types refuse a ``--seeds`` below 1, or a
grid entry that ``config.check_value`` refuses as its key, before any run
with exit code 2 and a message naming the flag.  Every grid given is then
checked by ``harness.check_sweep`` before any of them runs; a refused grid
also exits with code 2 and a message, and writes no file.  Every
subcommand reads ``--seed`` as the ``seed`` key in the same way."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config, read_value
from .errors import ConfigError
from .harness import check_sweep, run_experiment, strict_json, sweep
from .verify import SUITES, run_suites


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=_value("seed"), default=None, help="override the config seed"
    )
    parser.add_argument("--out-dir", default=None, help="override the output directory")


def _load(args: argparse.Namespace):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args)
    result = run_experiment(cfg, out_dir=args.out_dir)
    totals = result.summary.get("totals", {})
    print(f"wrote {result.csv_path} and {result.json_path}")
    print(
        f"rounds={totals.get('rounds')} comms={totals.get('communications')} "
        f"rel_err={totals.get('final_rel_err'):.6g}"
    )
    return 0


def _count(text: str) -> int:
    """An integer of at least 1; argparse names the flag when this refuses."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _value(name: str):
    """The argparse type of one value of config key ``name``, read and
    checked as in a config file."""

    def read(text: str):
        try:
            return read_value(name, text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return read


def _values(name: str):
    """The argparse type of a comma list of config key ``name``'s values,
    each read as ``_value`` reads one."""
    one = _value(name)
    return lambda text: [one(tok) for tok in text.split(",") if tok.strip()]


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if not (args.participation or args.tau):
        print("nothing to sweep: pass --participation and/or --tau", file=sys.stderr)
        return 2
    try:
        for key, values in (("caden.participation", args.participation), ("caden.tau", args.tau)):
            if values:
                check_sweep(cfg, key, values, args.seeds)
    except ConfigError as exc:
        print(f"caden sweep: error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out_dir if args.out_dir is not None else cfg.output_dir
    report: dict = {"seeds": args.seeds}
    if args.participation:
        result = sweep(
            cfg, "caden.participation", args.participation, args.seeds, out_dir, write_outputs=True
        )
        final_v = result.final_v
        report["participation"] = {str(p): v for p, v in final_v.items()}
        for p in result.values:
            print(f"p={p:g}: seed-averaged final V = {final_v[p]:.6g}")
    if args.tau:
        result = sweep(cfg, "caden.tau", args.tau, args.seeds, out_dir, write_outputs=True)
        final_err = result.final_rel_err
        report["tau"] = {str(tau): err for tau, err in final_err.items()}
        for tau in result.values:
            print(f"tau={tau}: seed-averaged final rel_err = {final_err[tau]:.6g}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg.output_label}_sweep.json"
    path.write_text(strict_json(report), encoding="ascii")
    print(f"wrote {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    for res in results:
        print(res.line())
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = {r.suite: {"passed": r.passed, **r.details} for r in results}
        path = out / "verify.json"
        path.write_text(strict_json(payload), encoding="ascii")
        print(f"wrote {path}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caden",
        description="Decentralized primal-dual consensus optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True, help="config file path")
    _add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run participation and/or workload grids")
    sweep_p.add_argument("--config", required=True, help="config file path")
    sweep_p.add_argument(
        "--participation",
        type=_values("caden.participation"),
        default="",
        help="comma-separated participation probabilities",
    )
    sweep_p.add_argument(
        "--tau", type=_values("caden.tau"), default="",
        help="comma-separated local iteration budgets",
    )
    sweep_p.add_argument("--seeds", type=_count, default=5, help="seeds per grid point")
    _add_common(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run built-in invariant suites")
    verify_p.add_argument(
        "--suite",
        default="all",
        choices=["all", *SUITES],
        help="which invariant suite to run",
    )
    verify_p.add_argument("--seed", type=_value("seed"), default=0)
    verify_p.add_argument("--out-dir", default=None)
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
