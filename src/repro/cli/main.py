"""The command table and the three things derived from it: the parser,
dispatch with one output path, and the documented command list."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.cli import ops, serve, sweep, train
from repro.cli.base import Arg, Command, Report, UsageError
from repro.cluster.memory import OutOfMemoryError
from repro.cluster.spec import FaultTargetError
from repro.utils import write_json

COMMANDS: Sequence[Command] = (
    *train.COMMANDS, *sweep.COMMANDS, *serve.COMMANDS, *ops.COMMANDS,
)


def _flat(rows):
    """Argument rows of a nested group, in declaration order."""
    for row in rows:
        if isinstance(row, Arg):
            yield row
        else:
            yield from _flat(row)


def _add_commands(parser, commands: Sequence[Command], dest: str) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for command in commands:
        child = sub.add_parser(
            command.name, help=command.help, description=command.help,
            epilog=f"example: repro {command.example}" if command.example else None,
        )
        for flags, kwargs in _flat(command.args):
            child.add_argument(*flags, **kwargs)
        if command.subcommands:
            _add_commands(child, command.subcommands, f"{command.name}_command")
        else:
            child.set_defaults(run=command.run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NeutronStar reproduction: distributed GNN training "
                    "with hybrid dependency management",
    )
    _add_commands(parser, COMMANDS, "command")
    return parser


def command_examples(commands: Sequence[Command] = COMMANDS) -> List[str]:
    """One ``python -m repro ...`` line per runnable command: the
    "Command line" block of ``docs/api.md``, checked by a test."""
    lines: List[str] = []
    for command in commands:
        if command.subcommands:
            lines += command_examples(command.subcommands)
        else:
            lines.append(f"python -m repro {command.example}")
    return lines


def emit(args) -> int:
    """Run the parsed command and do all of its I/O: body to stdout,
    payload to ``--json``, footer, exit code.  A plan that does not fit
    is ``error: ...`` / exit 1; flags naming a worker or replica that
    cannot exist are ``error: ...`` / exit 2."""
    try:
        report: Report = args.run(args)
    except OutOfMemoryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (FaultTargetError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for block in report.body:
        print(block)
    if report.payload is not None:
        write_json(args.json, report.payload)
    for line in report.footer:
        print(line)
    return report.code


def main(argv: Optional[List[str]] = None) -> int:
    return emit(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
