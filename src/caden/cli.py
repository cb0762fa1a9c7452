"""Command-line entry point: run experiments, sweep grids, verify invariants."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .harness import check_sweep, participation_sweep, run_experiment, strict_json
from .verify import SUITES, run_suites


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
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


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out_dir = args.out_dir if args.out_dir is not None else cfg.output_dir
    wrote_any = False
    report: dict = {"seeds": args.seeds}
    if args.participation:
        sweep = participation_sweep(
            cfg,
            _float_list(args.participation),
            n_seeds=args.seeds,
            out_dir=out_dir,
            write_outputs=True,
        )
        report["participation"] = {str(p): v for p, v in sweep.final_v.items()}
        for p in sweep.values:
            print(f"p={p:g}: seed-averaged final V = {sweep.final_v[p]:.6g}")
        wrote_any = True
    if args.tau:
        check_sweep(cfg, "caden.tau")
        tau_report = {}
        for tau in (int(t) for t in _float_list(args.tau)):
            errs = []
            for k in range(args.seeds):
                run_cfg = cfg.replace(
                    caden_tau=tau,
                    seed=cfg.seed + k,
                    output_label=f"{cfg.output_label}_tau{tau}_s{cfg.seed + k}",
                )
                result = run_experiment(run_cfg, out_dir=out_dir, write_outputs=True)
                errs.append(result.summary["totals"]["final_rel_err"])
            mean_err = sum(errs) / len(errs)
            tau_report[str(tau)] = mean_err
            print(f"tau={tau}: seed-averaged final rel_err = {mean_err:.6g}")
        report["tau"] = tau_report
        wrote_any = True
    if not wrote_any:
        print("nothing to sweep: pass --participation and/or --tau", file=sys.stderr)
        return 2
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
        "--participation", default="", help="comma-separated participation probabilities"
    )
    sweep_p.add_argument("--tau", default="", help="comma-separated local iteration budgets")
    sweep_p.add_argument("--seeds", type=int, default=5, help="seeds per grid point")
    _add_common(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run built-in invariant suites")
    verify_p.add_argument(
        "--suite",
        default="all",
        choices=["all", *SUITES],
        help="which invariant suite to run",
    )
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--out-dir", default=None)
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
