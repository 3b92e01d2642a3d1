"""Command-line entry point.

Subcommands:
    run <config>               integrate one configured simulation
    scenario <name> <config>   execute a named experiment preset
    inspect <snapshot>         validate and summarize a snapshot file

Exit codes: 0 success/pass, 1 failed check or corrupt inspected snapshot,
2 usage or configuration error, 3 numerical failure (blow-up, NaN, guard).
"""

from __future__ import annotations

import argparse
import sys

from ..energetics import basic_energy, constraint_bundle
from ..errors import ConfigError, NumericalError, SnapshotError
from .config import SimulationConfig
from .scenarios import SCENARIOS, run_scenario, run_simulation
from .snapshot import load_snapshot

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--out-dir", default=None, help="override the config output directory"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress normal output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastomag",
        description="Pseudospectral magnetoelasticity simulator on the periodic torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate one configured simulation")
    run_p.add_argument("config", help="path to a JSON configuration file")
    _add_common_flags(run_p)

    sc_p = sub.add_parser("scenario", help="execute a named experiment preset")
    sc_p.add_argument("name", help=f"one of: {', '.join(sorted(SCENARIOS))}")
    sc_p.add_argument("config", help="path to a JSON configuration file")
    _add_common_flags(sc_p)

    in_p = sub.add_parser("inspect", help="validate and summarize a snapshot")
    in_p.add_argument("snapshot", help="path to a snapshot file")
    in_p.add_argument("--quiet", action="store_true", help="suppress normal output")
    return parser


def _load_config(args: argparse.Namespace) -> SimulationConfig:
    config = SimulationConfig.from_file(args.config)
    return config.with_overrides(seed=args.seed, out_dir=args.out_dir)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    art = run_simulation(config)
    result = art.result
    if not args.quiet:
        print(f"status: {result.status}")
        print(f"t_reached: {result.t_reached:.17g}")
        print(f"steps: {result.steps}")
        if result.message:
            print(f"message: {result.message}")
        print(f"csv: {art.csv_path}")
        print(f"snapshot: {art.final_snapshot}")
    return EXIT_OK if result.status == "completed" else EXIT_NUMERICAL


def _cmd_scenario(args: argparse.Namespace) -> int:
    config = _load_config(args)
    code, verdict_path, verdict = run_scenario(args.name, config)
    if not args.quiet:
        for check in verdict["checks"]:
            label = "PASS" if check["pass"] else "FAIL"
            print(
                f"[{label}] {check['name']}: value={check['value']} "
                f"threshold={check['threshold']}"
            )
        overall = "pass" if verdict["pass"] else "fail"
        print(f"verdict: {verdict_path} ({overall})")
    return code


def _cmd_inspect(args: argparse.Namespace) -> int:
    state = load_snapshot(args.snapshot)
    if not args.quiet:
        grid = state.grid
        print(f"formulation: {state.formulation}")
        print(f"dim: {grid.dim}")
        print(f"n: {grid.n}")
        print(f"t: {state.t:.17g}")
        print(f"basic_energy: {basic_energy(state):.17g}")
        for name, f in zip(state.names, state.fields):
            print(f"max_abs_{name}: {float(abs(f.values).max()):.17g}")
        for key, value in constraint_bundle(state).items():
            print(f"{key}: {value:.17g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return EXIT_OK
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        return _cmd_inspect(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SnapshotError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILURE if args.command == "inspect" else EXIT_USAGE
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
