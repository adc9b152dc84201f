"""Command-line entry point for scenario runs, sweeps, attacks, and exports.

Exit code is 0 on success; failures print a machine-readable error JSON
to stderr and return nonzero.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, replace

from . import bench
from .errors import ConfigInvalid, DPLedgerError, IoFailure


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "UsageError", "message": message}),
              file=sys.stderr)
        raise SystemExit(2)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise IoFailure(str(err)) from err
    except ValueError as err:
        # json.JSONDecodeError, or a file that is not UTF-8 text.
        raise ConfigInvalid(f"{path} is not valid JSON: {err}") from err


def _pct(value, spec: str) -> str:
    """A percentage for printing; ``n/a`` for a pass that measured none."""
    return "n/a" if value is None else f"{value:{spec}}%"


def _load_config(args) -> bench.WorkloadConfig:
    if args.config is not None:
        cfg = bench.WorkloadConfig.from_dict(_read_json(args.config))
    elif args.scenario is not None:
        cfg = bench.scenario_config(args.scenario)
    else:
        cfg = bench.scenario_config("error-150")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _add_config_args(sub):
    sub.add_argument("config", nargs="?", default=None,
                     help="path to a scenario config JSON")
    sub.add_argument("--scenario", choices=bench.SCENARIO_NAMES, default=None,
                     help="use a shipped named scenario instead of a file")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpledger",
                     description="Permissioned-ledger simulator with a "
                                 "differentially private query interface")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("init-ledger", help="populate a ledger and export it")
    _add_config_args(sub)

    sub = commands.add_parser("run", help="run a scenario and export its report")
    _add_config_args(sub)

    sub = commands.add_parser("sweep", help="accuracy vs. budget threshold sweep")
    _add_config_args(sub)
    sub.add_argument("--epsilon-list", default="1,2,3,4,5",
                     help="comma-separated thresholds")

    sub = commands.add_parser("attack", help="run a privacy attack scenario")
    sub.add_argument("--kind", choices=("linking", "composition", "averaging"),
                     required=True)
    sub.add_argument("--mode", choices=("reuse", "naive"), default=None,
                     help="whether the provider reuses budget for repeats; composition "
                          "and averaging only (default reuse)")
    sub.add_argument("--epsilon", type=float, default=1.0)
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--config", default=None,
                     help="JSON object of extra knobs for the attack driver: n_writes, "
                          "plus dp_enabled, n_trials and tolerance (linking), categories "
                          "and repeats (composition), or n and epsilon_t (averaging)")
    sub.add_argument("--out", default="out")

    sub = commands.add_parser("export", help="re-emit CSVs from a saved report")
    sub.add_argument("--report", default="out/report.json")
    sub.add_argument("--out", default="out-export")

    return parser


def _cmd_init_ledger(args) -> int:
    cfg = _load_config(args)
    paths = bench.export_ledger(cfg, args.out)
    print(f"ledger exported: {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    report = bench.run_scenario(cfg)
    bench.export_report(report, args.out)
    print(f"scenario {cfg.name}: naive eps_sum={report['naive_eps_sum']:.4f} "
          f"reuse eps_sum={report['reuse_eps_sum']:.4f} "
          f"savings={report['savings_pct']:.2f}% "
          f"mean relative error={_pct(report['reuse']['mean_relative_error'], '.3f')}")
    print(f"report written to {args.out}")
    return 0


def _epsilon_list(text: str) -> list:
    """The swept thresholds as numbers; ``bench.sweep`` checks their values."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as err:
        raise ConfigInvalid(f"--epsilon-list {text!r}: {err}") from err


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    epsilons = _epsilon_list(args.epsilon_list)
    result = bench.sweep(cfg, epsilons)
    bench.export_sweep(result, args.out)
    for row in result["rows"]:
        print(f"epsilon_t={row['epsilon_t']:g}: "
              f"mean relative error={_pct(row['mean_relative_error'], '.3f')} "
              f"accuracy={_pct(row['accuracy'], '.2f')}")
    return 0


def _cmd_attack(args) -> int:
    if args.kind == "linking" and args.mode is not None:
        raise ConfigInvalid("--mode applies to the composition and averaging attacks only")
    driver = {"linking": bench.run_linking_attack,
              "composition": bench.run_composition_attack,
              "averaging": bench.run_averaging_attack}[args.kind]
    flags = {"epsilon": args.epsilon, "seed": args.seed}
    if args.kind != "linking":
        flags["reuse_enabled"] = args.mode != "naive"
    knobs = _read_json(args.config) if args.config is not None else {}
    # A config sets the driver's keywords that no flag sets; the driver checks their values.
    allowed = sorted(inspect.signature(driver).parameters.keys()
                     - {"epsilon", "seed", "reuse_enabled"})
    if not isinstance(knobs, dict) or not knobs.keys() <= set(allowed):
        raise ConfigInvalid(f"the {args.kind} attack config must be a JSON object of "
                            f"knobs from {allowed}, got {knobs!r}")
    result = driver(**flags, **knobs)
    if args.kind == "linking":
        report = result["report"]
        extra = {"success_rate": result["success_rate"],
                 "expected_rate": result["expected_rate"],
                 "n_trials": result["n_trials"]}
    else:
        report, extra = result, {}
    path = bench._writer(args.out)(f"attack_{args.kind}.json",
                                   bench._json_text({**asdict(report), **extra}))
    print(f"{args.kind} attack: estimate={report.estimate:.3f} "
          f"true={report.true_value:.3f} error={report.abs_error:.3f} "
          f"success={report.success}")
    print(f"report written to {path}")
    return 0


def _cmd_export(args) -> int:
    paths = bench.export_report(_read_json(args.report), args.out)
    print(f"re-exported {len(paths)} files to {args.out}")
    return 0


_COMMANDS = {
    "init-ledger": _cmd_init_ledger,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "attack": _cmd_attack,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DPLedgerError as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
