"""Command-line interface: ``python -m repro <command>``.

A command is a row of one table (:data:`repro.cli.main.COMMANDS`): its
name, help, argument groups and a ``run(args) -> Report`` function.  The
parser, dispatch, each ``repro <command> --help`` page and the command
list in ``docs/api.md`` are all derived from that table; argument
groups and value converters are declared once in :mod:`repro.cli.args`;
and :func:`repro.cli.main.emit` is the only place a command's tables,
notes, ``--json`` file and exit code leave the process.  Run
``python -m repro --help`` for the command list.
"""

from repro.cli.main import COMMANDS, build_parser, command_examples, emit, main

__all__ = ["COMMANDS", "build_parser", "command_examples", "emit", "main"]
