"""``repro ops``: graded detect / localize / mitigate problems."""

from __future__ import annotations

from repro.cli.args import JSON
from repro.cli.base import Command, Report, arg
from repro.ops import (
    get_problem,
    list_problems,
    load_bundle,
    replay_bundle,
    run_problem,
    save_bundle,
)
from repro.sweeps import Column, ms, render

PROBLEM_COLUMNS = tuple(
    Column(header, key) for header, key in (
        ("problem", "name"), ("kind", "kind"), ("workload", "workload"),
        ("mitigation", "mitigation"), ("description", "description"),
    )
)


def ops_list(_args) -> Report:
    problems = list_problems()
    return Report(
        [render(PROBLEM_COLUMNS, problems)],
        {"problems": [p.spec_dict() for p in problems]},
    )


def _blame(res) -> str:
    v = res.verdict
    if v is None:
        return "-"
    if v.worker is not None:
        return f"worker {v.worker}"
    if v.link is not None:
        src, dst = v.link
        return f"link {src}->{'*' if dst is None else dst}"
    if v.layer is not None:
        return f"layer {v.layer}"
    return "-"


def _ttd(grade) -> str:
    return ms(grade.detection.ttd_s) if grade.detection.detected else "-"


RUN_COLUMNS = (
    Column("problem", lambda r: r.problem.name),
    Column("kind", lambda r: r.problem.kind),
    Column("verdict", lambda r: r.verdict.kind if r.verdict else "missed"),
    Column("blame", _blame),
    Column("ttd ms", lambda r: _ttd(r.grade)),
    Column("detect", lambda r: r.grade.detection.score, "{:.2f}"),
    Column("mitigate", lambda r: r.grade.mitigation.score, "{:.2f}"),
    Column("overall", lambda r: r.grade.overall, "{:.2f}"),
    Column("aborted", lambda r: "yes" if r.aborted else "no"),
)


def ops_run(args) -> Report:
    if args.problem and not args.all:
        problems = [get_problem(args.problem)]
    else:
        problems = list_problems()
    mitigate = not args.no_mitigate
    results = [
        run_problem(problem, seed=args.seed, mitigate=mitigate)
        for problem in problems
    ]
    body = [render(RUN_COLUMNS, results)]
    if args.record:
        stem = args.record[:-5] if args.record.endswith(".json") else args.record
        for res in results:
            path = args.record if len(results) == 1 \
                else f"{stem}-{res.problem.name}.json"
            body.append(f"bundle written to {save_bundle(res, path)}")
    return Report(body, {
        "seed": args.seed,
        "mitigate": mitigate,
        "problems": {
            res.problem.name: {
                "seed": res.seed,
                "mitigate": res.mitigate,
                "aborted": res.aborted,
                "clean_unit_s": res.clean_unit_s,
                "verdict": res.verdict.to_dict() if res.verdict else None,
                "mitigation": (
                    res.mitigation.to_dict() if res.mitigation else None
                ),
                "grade": res.grade.to_dict(),
            }
            for res in results
        },
    })


def _recovered(fmt):
    """Mitigation cells that only mean something once recovered."""
    def cell(report):
        m = report.grade.mitigation
        return fmt(m) if m.recovered else "-"
    return cell


GRADE_COLUMNS = (
    Column("problem", "name"),
    Column("detect", lambda r: r.grade.detection.score, "{:.2f}"),
    Column("blame", lambda r: r.grade.detection.blame_score, "{:.2f}"),
    Column("ttd ms", lambda r: _ttd(r.grade)),
    Column("mitigate", lambda r: r.grade.mitigation.score, "{:.2f}"),
    Column("recovery ms", _recovered(lambda m: ms(m.recovery_s))),
    Column("regression", _recovered(lambda m: f"{m.regression:+.2f}")),
    Column("overall", lambda r: r.grade.overall, "{:.2f}"),
)


def ops_grade(args) -> Report:
    """Re-grade a recorded bundle offline, engine-free."""
    report = replay_bundle(load_bundle(args.bundle))
    return Report([render(GRADE_COLUMNS, [report])], report.to_dict())


def _match(flag: str) -> Column:
    return Column(
        flag, lambda r: "match" if getattr(r, f"{flag}_match") else "MISMATCH"
    )


REPLAY_COLUMNS = (
    Column("problem", "name"), Column("seed", "seed"),
    _match("observations"), _match("verdict"), _match("grade"),
    Column("replay", lambda r: "identical" if r.identical else "DIVERGED"),
)


def ops_replay(args) -> Report:
    """Verify the bundle reproduces itself bit-identically."""
    report = replay_bundle(load_bundle(args.bundle))
    return Report(
        [render(REPLAY_COLUMNS, [report])]
        + [f"mismatch: {line}" for line in report.mismatches],
        report.to_dict(), code=0 if report.identical else 1,
    )


_BUNDLE = arg("bundle", help="bundle path from ops run --record")

COMMANDS = (
    Command(
        "ops",
        "operations benchmark: graded detect/localize/mitigate problems "
        "with trace replay",
        subcommands=(
            Command("list", "list the registered ops problems",
                    example="ops list", args=(JSON,), run=ops_list),
            Command(
                "run", "run one problem (or all) end-to-end and grade it",
                example="ops run serve-slo-burn --record bundle.json",
                args=(
                    arg("problem", nargs="?", default=None,
                        help="problem name (see 'repro ops list'); omitted "
                             "= all"),
                    arg("--all", action="store_true",
                        help="run every registered problem"),
                    arg("--seed", type=int, default=0,
                        help="single run seed; every stream (graph, faults, "
                             "workload) derives from it"),
                    arg("--no-mitigate", action="store_true",
                        help="detect and grade only; apply no mitigation"),
                    arg("--record", default=None,
                        help="write replayable bundle(s) to this path "
                             "(per-problem suffix when running several)"),
                    JSON,
                ),
                run=ops_run,
            ),
            Command("grade", "re-grade a recorded bundle offline",
                    example="ops grade bundle.json",
                    args=(_BUNDLE, JSON), run=ops_grade),
            Command(
                "replay",
                "replay a recorded bundle without the engine and verify "
                "bit-identity (non-zero exit on divergence)",
                example="ops replay bundle.json",
                args=(_BUNDLE, JSON), run=ops_replay,
            ),
        ),
    ),
)
