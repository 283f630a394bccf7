"""Command-line interface.

    qworkbench list
    qworkbench describe <scenario-id>
    qworkbench run <scenario-id> [--config PATH] [--set key=value]...
                   [--seed N] [--threads N] [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 invariant breach during a
run, 4 unexpected truncation-guard trip.

``list`` and ``describe`` load argparse and the registry alone; ``run``
loads the configuration module, the runners and its scenario's physics
module(s), and PyYAML only to read ``--config`` or write ``metadata.yaml``.
"""
from __future__ import annotations

import argparse
import sys

from .scenarios import InvariantBreach, describe_scenario, list_scenarios, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_TRUNCATION = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qworkbench",
        description="scenario runner for the quantum-dynamics workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available scenarios")

    desc = sub.add_parser("describe", help="show a scenario's parameters")
    desc.add_argument("scenario")

    run = sub.add_parser("run", help="run a scenario and write its tables")
    run.add_argument("scenario")
    run.add_argument("--config", help="YAML config file")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override one parameter")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--threads", type=int, default=None)
    run.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for scenario_id, description, _ in list_scenarios():
            print(f"{scenario_id:24s} {description}")
        return EXIT_OK

    if args.command == "describe":
        try:
            scenario = describe_scenario(args.scenario)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"{scenario.scenario_id}: {scenario.description}\n")
        print(scenario.details + "\n")
        print("parameters (defaults and ranges):")
        for key, value in scenario.defaults.items():
            print(f"  {key} = {value}  in {scenario.ranges[key]}")
        return EXIT_OK

    from .config import ConfigError, ScenarioConfig, load_config, parse_set_overrides

    try:
        if args.config:
            config = load_config(args.config)
            if config.scenario != args.scenario:
                raise ConfigError(
                    f"config file names scenario {config.scenario!r} but the "
                    f"command line asked for {args.scenario!r}")
        else:
            config = ScenarioConfig(scenario=args.scenario)
        config.overrides.update(parse_set_overrides(args.overrides))
        if args.seed is not None:
            config.master_seed = args.seed
        if args.threads is not None:
            config.threads = args.threads
        if args.out is not None:
            config.out_dir = args.out
        describe_scenario(config.scenario)  # validates the id
    except (ConfigError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # the run loads qcore in any case
    from ..qcore import TruncationError

    try:
        artifact = run_scenario(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except TruncationError as exc:
        print(f"truncation guard tripped: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION

    root = artifact.write(config.out_dir)
    print(f"wrote {len(artifact.tables)} table(s) to {root}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
