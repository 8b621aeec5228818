"""The three shapes every command shares: its table row, its argument
rows, and what it hands back to :func:`repro.cli.main.emit`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence


class Arg(NamedTuple):
    """One ``add_argument`` call, as data."""

    flags: tuple
    kwargs: dict


def arg(*flags: str, **kwargs) -> Arg:
    return Arg(flags, kwargs)


@dataclass(frozen=True)
class Command:
    """One row of the command table.

    ``args`` is a sequence of :func:`arg` rows and groups (tuples of
    rows, nested freely); ``example`` is the argv tail shown in
    ``--help`` and in ``docs/api.md``.  A row with ``subcommands``
    instead of ``run`` is a namespace (``repro ops ...``).
    """

    name: str
    help: str
    example: str = ""
    args: Sequence = ()
    run: Optional[Callable] = None  # run(args) -> Report
    subcommands: Sequence["Command"] = ()


@dataclass
class Report:
    """What a command produced; :func:`emit` does all the I/O.

    ``body`` blocks (rendered tables and note lines) print in order,
    then ``payload`` is written to ``--json`` if the flag was given,
    then ``footer`` lines print; ``code`` is the exit status.
    """

    body: List[str] = field(default_factory=list)
    payload: Optional[dict] = None
    footer: Sequence[str] = ()
    code: int = 0


def echo(args, *names: str) -> dict:
    """The named flags as parsed, for a payload that records its inputs."""
    return {name: getattr(args, name) for name in names}


class UsageError(ValueError):
    """Flags that parse one by one but contradict each other; ``emit``
    reports it as ``error: ...`` and exits 2 like an argparse error."""
