"""Operations benchmark: graded detect / localize / mitigate scores.

Runs every registered ops problem twice -- mitigated and unmitigated --
and reports the operational headline numbers the subsystem grades:
time-to-detect, blame accuracy, recovery time after mitigation, and
the overall score delta that mitigating buys.  (Not a figure of the
paper: NeutronStar's evaluation assumes a healthy cluster; this harness
asks how observable and repairable its hybrid-dependency runs are when
the cluster degrades.)

Headline shapes this module asserts:

- every built-in problem is detected with the correct degradation
  class and perfect blame (worker / link / layer) on the default seed;
- every mitigation recovers: the post-mitigation stream returns under
  the problem's recovery threshold in finite time;
- mitigating strictly beats not mitigating on the overall grade for
  every problem (the unmitigated permanent crash aborts outright);
- recorded bundles replay bit-identically, engine-free.
"""

from common import paper_row, parse_json_flag, print_table, write_json

from repro.ops import (
    bundle_from_result,
    list_problems,
    replay_bundle,
    run_problem,
)

SEED = 0


def run_experiment():
    rows = []
    result = {"seed": SEED, "problems": {}}
    for problem in list_problems():
        mitigated = run_problem(problem, seed=SEED, mitigate=True)
        unmitigated = run_problem(problem, seed=SEED, mitigate=False)
        replay = replay_bundle(bundle_from_result(mitigated))
        g = mitigated.grade
        entry = {
            "kind": problem.kind,
            "verdict_kind": mitigated.verdict.kind
            if mitigated.verdict else None,
            "ttd_s": g.detection.ttd_s,
            "ttd_score": g.detection.ttd_score,
            "blame_score": g.detection.blame_score,
            "detection_score": g.detection.score,
            "recovery_s": g.mitigation.recovery_s,
            "recovered": g.mitigation.recovered,
            "regression": g.mitigation.regression,
            "mitigation_score": g.mitigation.score,
            "overall": g.overall,
            "unmitigated_overall": unmitigated.grade.overall,
            "unmitigated_aborted": unmitigated.aborted,
            "replay_identical": replay.identical,
        }
        result["problems"][problem.name] = entry
        rows.append([
            problem.name,
            problem.kind,
            f"{entry['ttd_s'] * 1e3:.2f}",
            f"{entry['blame_score']:.2f}",
            f"{entry['recovery_s'] * 1e3:.2f}",
            f"{entry['overall']:.2f}",
            f"{entry['unmitigated_overall']:.2f}",
            "yes" if entry["replay_identical"] else "NO",
        ])
    print_table(
        "ops problems: graded detect/localize/mitigate (seed 0)",
        ["problem", "kind", "ttd ms", "blame", "recovery ms",
         "overall", "no-mitigation", "replay"],
        rows,
    )
    paper_row(
        "operations benchmark over the hybrid-dependency runs: injected "
        "degradations must be detectable from observable signals alone "
        "and repairable with the elastic/SLO machinery (not a "
        "NeutronStar experiment)"
    )
    return result


def check(result):
    """The headline shapes; run by pytest and by ``__main__`` (CI)."""
    problems = result["problems"]
    assert len(problems) >= 5

    for name, entry in problems.items():
        # Detection: right class, right culprit.
        assert entry["verdict_kind"] == entry["kind"], name
        assert entry["blame_score"] == 1.0, name
        assert entry["detection_score"] >= 0.9, name
        # Mitigation: the stream actually recovers.
        assert entry["recovered"], name
        assert entry["recovery_s"] < float("inf"), name
        # Mitigating strictly beats doing nothing.
        assert entry["overall"] > entry["unmitigated_overall"], name
        # Offline replay reproduces the recorded run bit-identically.
        assert entry["replay_identical"], name

    # The unmitigated permanent crash kills the run outright.
    assert problems["train-crash-permanent"]["unmitigated_aborted"]


def test_ops(benchmark):
    result = run_experiment()
    check(result)
    benchmark(lambda: len(result["problems"]))


if __name__ == "__main__":
    json_path = parse_json_flag("operations benchmark")
    result = run_experiment()
    write_json(json_path, result)
    check(result)
