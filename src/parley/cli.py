"""Command line runner for scenario files."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .beliefs import ContractViolation, StructureError
from .negotiation import DepthExceededError, NegotiationConfig, negotiate
from .scenario import ScenarioError, parse_scenario
from .trace import Trace

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEEDS_SHARING = 2


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with the generic error code, since argparse's own
    code 2 means a stalled dialogue here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="parley",
        description="Run negotiation scenarios between two belief-holding agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario file and print the dialogue")
    run.add_argument("file", help="path to a .scenario file")
    run.add_argument("--tau", type=int, help="acceptance threshold (overrides the file)")
    run.add_argument("--max-depth", type=int, help="nesting bound (overrides the file)")
    run.add_argument("--trace", metavar="PATH", help="write the decision trace as NDJSON")
    run.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            scenario = parse_scenario(handle.read())
    except OSError as exc:
        print(f"parley: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ScenarioError, UnicodeDecodeError) as exc:
        print(f"parley: {args.file}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    trace = Trace()
    try:
        config = NegotiationConfig(
            tau=args.tau if args.tau is not None else scenario.tau,
            max_depth=args.max_depth if args.max_depth is not None else scenario.max_depth,
        )
        transcript = negotiate(
            {agent.id: agent.kb for agent in scenario.agents},
            scenario.proposer.id,
            scenario.proposal,
            config,
            trace=trace,
        )
    except (DepthExceededError, ContractViolation, StructureError) as exc:
        print(f"parley: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError as exc:
        print(f"parley: {args.file}: too deep to negotiate: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as handle:
                handle.write(trace.to_ndjson())
        except OSError as exc:
            print(f"parley: {exc}", file=sys.stderr)
            return EXIT_ERROR

    if args.format == "json":
        print(
            json.dumps(
                {
                    "acts": transcript.realize(),
                    "outcome": transcript.outcome,
                    "depth": transcript.depth,
                    "rounds": transcript.rounds,
                    "ratifiedRoot": (
                        None
                        if transcript.ratified_root is None
                        else transcript.ratified_root.render()
                    ),
                    "concededBy": transcript.conceded_by,
                },
                indent=2,
                ensure_ascii=False,
            )
        )
    else:
        for line in transcript.realize():
            print(line)

    if transcript.outcome == "unresolved-needs-sharing":
        return EXIT_NEEDS_SHARING
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    # ``run`` is the one subcommand, and the parser requires it
    return _run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
