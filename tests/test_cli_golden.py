"""Golden CLI transcripts and the parser surface.

``tests/data/golden_cli/`` pins, for one or two tiny argvs per command,
the verbatim stdout (tmp paths normalised to ``<TMP>``), the exit code
and the sha256 of the canonical ``--json`` payload, plus every
subparser's option surface.  The goldens were recorded before the CLI
became a command table and must pass unmodified on any refactor of it;
``python tests/test_cli_golden.py`` re-records them after an intended
change of output.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, command_examples, main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_cli"

_TINY = ["--dataset", "cora", "--scale", "0.1", "--nodes", "2"]

# id -> argv; ``{tmp}`` is one directory shared by every case, so the
# ops grade/replay rows read the bundle the ops run row recorded.
CASES = {
    "datasets": ["datasets"],
    "probe": ["probe", *_TINY],
    "train-cached": [
        "train", *_TINY, "--engine", "depcomm", "--epochs", "2",
        "--eval-every", "1", "--tau", "2", "--cache-mb", "1",
        "--json", "{tmp}/train.json",
    ],
    "train-sampled": [
        "train", *_TINY, "--engine", "sampled", "--sampler", "labor",
        "--fanouts", "3,5", "--kappa", "0.5", "--batch-size", "16",
        "--epochs", "1", "--eval-every", "1",
        "--checkpoint", "{tmp}/ckpt",
    ],
    "compare": ["compare", *_TINY, "--json", "{tmp}/compare.json"],
    "analyze": [
        "analyze", *_TINY, "--partitioner", "hash",
        "--json", "{tmp}/analyze.json",
    ],
    "chaos-all": [
        "chaos", *_TINY, "--epochs", "2", "--straggler", "0:4",
        "--degrade", "0:*:2", "--loss", "0.1:1",
        "--json", "{tmp}/chaos.json",
    ],
    "chaos-shrink": [
        "chaos", "--dataset", "cora", "--scale", "0.05", "--nodes", "4",
        "--epochs", "4", "--engine", "hybrid", "--checkpoint-every", "2",
        "--crash", "1:0.001::perm", "--recovery", "shrink",
        "--json", "{tmp}/shrink.json",
    ],
    "cache-sweep": [
        "cache-sweep", *_TINY, "--epochs", "2", "--taus", "0,inf",
        "--capacity-mb", "0.01", "--json", "{tmp}/cache_sweep.json",
    ],
    "replan-sweep": [
        "replan-sweep", "--dataset", "cora", "--scale", "0.1",
        "--nodes", "4", "--epochs", "4", "--straggler", "0:8.0:8.0",
        "--json", "{tmp}/replan.json",
    ],
    "serve": [
        "serve", *_TINY, "--requests", "20", "--rate", "5000",
        "--train-epochs", "1", "--tau-s", "0.05", "--burst", "0:0.001",
        "--crash", "1:0.0", "--trace", "{tmp}/serve_trace",
        "--json", "{tmp}/serve.json",
    ],
    "serve-bench": [
        "serve-bench", *_TINY, "--requests", "30", "--rate", "100000",
        "--taus", "0,0.05", "--json", "{tmp}/serve_bench.json",
    ],
    "fleet": [
        "fleet", *_TINY, "--replicas", "2", "--requests", "96",
        "--rate", "4000", "--health-every", "32",
        "--crash-replica", "1:0.005", "--straggle-replica", "0:2:0:0.001",
        "--json", "{tmp}/fleet.json",
    ],
    "explain-plan": [
        "explain-plan", "--dataset", "cora", "--scale", "0.2",
        "--nodes", "2", "--tau", "2", "--fuse-pass", "--pipeline-pass",
        "--ring-pass",
    ],
    "explain-plan-json": [
        "explain-plan", "--dataset", "cora", "--scale", "0.2",
        "--nodes", "4", "--engine", "depcomm", "--overlap-pass",
        "--json", "{tmp}/program.json",
    ],
    "explain-plan-tp": [
        "explain-plan", "--dataset", "cora", "--scale", "0.2",
        "--nodes", "4", "--engine", "tp", "--json", "{tmp}/tpplan.json",
    ],
    "explain-plan-sampled": [
        "explain-plan", "--dataset", "cora", "--scale", "0.2",
        "--nodes", "2", "--sampled", "--sampler", "labor",
        "--fanouts", "3,5", "--kappa", "0.5", "--batch-size", "16",
        "--batches", "2",
    ],
    "explain-plan-sampled-json": [
        "explain-plan", "--dataset", "cora", "--scale", "0.2",
        "--nodes", "2", "--engine", "sampled", "--sampler", "labor",
        "--fanouts", "3,5", "--batches", "2", "--json", "{tmp}/splan.json",
    ],
    "sample-sweep": [
        "sample-sweep", "--dataset", "cora", "--scale", "0.2",
        "--nodes", "2", "--samplers", "uniform,labor", "--fanouts", "3,5",
        "--kappas", "0,1", "--cache-mb", "0,0.01", "--batch-size", "32",
        "--epochs", "1", "--json", "{tmp}/sample_sweep.json",
    ],
    "tp-sweep": [
        "tp-sweep", "--nodes", "16", "--vertices", "1024",
        "--exponents", "0.1,1.2", "--hiddens", "16,256",
        "--json", "{tmp}/tp_sweep.json",
    ],
    "ops-list": ["ops", "list", "--json", "{tmp}/ops_list.json"],
    "ops-run": [
        "ops", "run", "train-cache-thrash", "--record", "{tmp}/bundle.json",
        "--json", "{tmp}/ops_run.json",
    ],
    "ops-grade": [
        "ops", "grade", "{tmp}/bundle.json", "--json", "{tmp}/ops_grade.json",
    ],
    "ops-replay": [
        "ops", "replay", "{tmp}/bundle.json",
        "--json", "{tmp}/ops_replay.json",
    ],
}


def command_of(argv):
    """``"train"`` / ``"ops run"``: the registry name an argv exercises."""
    return " ".join(argv[:2]) if argv[0] == "ops" else argv[0]


def run_case(argv, tmp):
    """``(exit code, normalised stdout, --json payload or None)``."""
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    payload = None
    if "--json" in argv:
        text = Path(argv[argv.index("--json") + 1]).read_text()
        payload = json.loads(text.replace(str(tmp), "<TMP>"))
    return code, out.getvalue().replace(str(tmp), "<TMP>"), payload


def payload_sha256(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_all_cases(tmp):
    return {name: run_case(argv, tmp) for name, argv in CASES.items()}


def parser_surface(parser=None, prefix=""):
    """``{"<command>": {"<option strings>": {default, choices, ...}}}``."""
    parser = parser or build_parser()
    surface, options = {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(parser_surface(sub, f"{prefix}{name} "))
        elif not isinstance(action, argparse._HelpAction):
            options["/".join(action.option_strings) or action.dest] = {
                "action": type(action).__name__,
                "default": action.default,
                "choices": (
                    list(action.choices) if action.choices is not None else None
                ),
                "required": action.required,
                "nargs": action.nargs,
                "type": getattr(action.type, "__name__", None),
            }
    if prefix:
        surface[prefix.strip()] = options
    return surface


@pytest.fixture(scope="module")
def transcripts(tmp_path_factory):
    return run_all_cases(tmp_path_factory.mktemp("golden-cli"))


@pytest.fixture(scope="module")
def golden_index():
    return json.loads((GOLDEN_DIR / "cases.json").read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_golden_transcript(name, transcripts, golden_index):
    code, stdout, payload = transcripts[name]
    golden = golden_index[name]
    assert code == golden["exit"]
    assert stdout == (GOLDEN_DIR / f"{name}.txt").read_text()
    sha = payload_sha256(payload) if payload is not None else None
    assert sha == golden["json_sha256"]


def test_payloads_keep_the_shapes_ci_used_to_assert(transcripts):
    """The semantic checks the deleted ``*-smoke`` CI heredocs made on
    these same commands' ``--json`` files (the sha256 above pins the
    bytes; this says what the bytes must mean)."""
    payload = {name: case[2] for name, case in transcripts.items()}

    program = payload["explain-plan-json"]
    assert program["passes"] == ["overlap-exchange"]
    assert program["num_workers"] == 4
    for layer in program["layers"]:
        for worker in layer["workers"]:
            kinds = [s["kind"] for s in worker["steps"]]
            assert kinds[0] == "get_from_dep_nbr", kinds
            assert kinds[-1] == "vertex_forward", kinds

    plan = payload["explain-plan-tp"]
    assert plan["engine"] == "tp"
    for layer in plan["layers"]:
        assert layer["tensor_parallel"]
        assert layer["exchange_bytes"] == layer["post_exchange_bytes"]
        for worker in layer["workers"]:
            kinds = [s["kind"] for s in worker["steps"]]
            assert kinds[0] == kinds[-2] == "feature_slice_all_to_all", kinds
            assert kinds[-1] == "vertex_forward", kinds

    desc = payload["explain-plan-sampled-json"]
    assert (desc["engine"], desc["sampler"]) == ("sampled", "labor")
    assert len(desc["rounds"]) == 2
    for rnd in desc["rounds"]:
        for layer in rnd["layers"]:
            for worker in layer["workers"]:
                gather = worker["steps"][0]
                assert gather["kind"] == "get_from_dep_nbr", gather
                assert gather["num_inputs"] == (
                    gather["num_local"] + gather["num_fetch"]
                    + gather["num_cached"] + gather["num_recompute"]
                ), gather

    rows = payload["sample-sweep"]["rows"]
    assert len(rows) == 8  # 2 samplers x 1 fanout group x 2 kappas x 2 caches
    assert all(r["epoch_s"] > 0 and r["sampled_edges"] > 0 for r in rows)
    comm = {(r["sampler"], r["kappa"], r["cache_mb"]): r["comm_bytes"]
            for r in rows}
    for sampler, _, cache in comm:
        assert comm[sampler, 1.0, cache] <= comm[sampler, 0.0, cache], comm

    sweep = payload["tp-sweep"]
    cells = {(r["hub_exponent"], r["hidden"]): r for r in sweep["rows"]}
    assert len(cells) == 4
    # Wide hidden + heavy skew flips layer 2 to tensor parallelism; the
    # flat corner keeps the pure three-way plan.
    assert cells[1.2, 256]["tp_layers"] == [False, True]
    assert cells[0.1, 16]["tp_layers"] == [False, False]
    for r in sweep["rows"]:
        assert r["times_s"]["hybrid4"] <= r["times_s"]["hybrid"] * (1 + 1e-9), r

    points = {p["tau"]: p for p in payload["cache-sweep"]["points"]}
    baseline = payload["cache-sweep"]["baseline"]
    assert points[0.0]["comm_bytes_per_epoch"] == baseline["comm_bytes_per_epoch"]
    assert points[0.0]["accuracy"] == baseline["accuracy"]
    assert set(points) == {0.0, float("inf")}

    shrink = payload["chaos-shrink"]["engines"]["hybrid"]
    assert shrink["recoveries"][0]["strategy"] == "shrink"
    assert shrink["num_workers_final"] == 3

    summary = payload["serve"]["summary"]
    assert summary["num_requests"] == summary["served"] == 20
    assert 0 < summary["latency_p99_ms"] < 1000

    run = payload["ops-run"]["problems"]["train-cache-thrash"]
    assert run["verdict"]["kind"] == "cache-thrash"
    assert run["grade"]["overall"] > 0.5
    assert payload["ops-replay"]["identical"]


# The one intended change since the goldens were recorded: these text
# flags gained an argparse ``type=`` converter (a bad value now exits 2
# naming the flag instead of crashing the command body).
CONVERTED = {
    "--taus", "--capacity-mb", "--kappas", "--cache-mb", "--samplers",
    "--exponents", "--hiddens", "--fanouts", "--tau", "--straggler",
    "--degrade", "--loss", "--crash", "--burst", "--crash-replica",
    "--straggle-replica",
}


def test_parser_surface_matches_golden():
    golden = json.loads((GOLDEN_DIR / "parser_surface.json").read_text())
    surface = json.loads(json.dumps(parser_surface()))
    for command, options in surface.items():
        for option, spec in options.items():
            if option in CONVERTED and golden[command][option]["type"] is None:
                assert spec["type"] is not None, (command, option)
                spec["type"] = None
    assert surface == golden


def test_every_registered_command_has_a_golden_row():
    runnable = set(parser_surface()) - {"ops"}  # ``ops`` is a namespace
    assert {command_of(argv) for argv in CASES.values()} == runnable
    assert {name for c in COMMANDS for name in (
        [f"{c.name} {s.name}" for s in c.subcommands] or [c.name]
    )} == runnable


def test_documented_command_list_is_the_registry():
    text = (Path(__file__).parents[1] / "docs" / "api.md").read_text()
    block = text.split("## Command line\n\n```\n")[1].split("```")[0]
    assert block.splitlines() == command_examples()
    for line in command_examples():  # and every documented line parses
        build_parser().parse_args(shlex.split(line)[3:])


_CORA = ["--dataset", "cora", "--scale", "0.05", "--nodes", "2"]


@pytest.mark.parametrize("argv, named", [
    (["cache-sweep", *_CORA, "--taus", "0,x"], "--taus"),
    (["cache-sweep", *_CORA, "--capacity-mb", "1,,2"], "--capacity-mb"),
    (["sample-sweep", *_CORA, "--kappas", "0;1"], "--kappas"),
    (["sample-sweep", *_CORA, "--cache-mb", "big"], "--cache-mb"),
    (["sample-sweep", *_CORA, "--samplers", "uniform,magic"], "--samplers"),
    (["sample-sweep", *_CORA, "--fanouts", "3,x"], "--fanouts"),
    (["tp-sweep", "--exponents", "0.1,"], "--exponents"),
    (["tp-sweep", "--hiddens", "8,"], "--hiddens"),
    (["serve-bench", *_CORA, "--taus", "fast"], "--taus"),
    (["train", *_CORA, "--tau", "abc"], "--tau"),
    (["chaos", *_CORA, "--straggler", "a:4"], "--straggler"),
    (["chaos", *_CORA, "--degrade", "0:1"], "--degrade"),
    (["chaos", *_CORA, "--loss", "lots"], "--loss"),
    (["chaos", *_CORA, "--crash", "1"], "--crash"),
    (["serve", *_CORA, "--burst", "nonsense"], "--burst"),
    (["fleet", *_CORA, "--crash-replica", "nonsense"], "--crash-replica"),
    # Targets that parse but can never exist are refused, not ignored.
    (["chaos", *_CORA, "--straggler", "9:4"], "StragglerFault worker=9"),
    (["chaos", *_CORA, "--degrade", "0:7:2"], "LinkDegradationFault dst=7"),
    (["replan-sweep", *_CORA, "--loss", "0.1:5"], "MessageLossFault src=5"),
    (["serve", *_CORA, "--crash", "2:0.0"], "WorkerCrashFault worker=2"),
    (["fleet", *_CORA, "--crash-replica", "4:0.005"], "--crash-replica"),
    (["fleet", *_CORA, "--replicas", "2", "--max-replicas", "1",
      "--straggle-replica", "2:4"], "--straggle-replica"),
])
def test_bad_flag_values_exit_2_naming_the_flag(argv, named, capsys):
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse's own error path
        code = exit_.code
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def record():
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    index = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (code, stdout, payload) in run_all_cases(Path(tmp)).items():
            (GOLDEN_DIR / f"{name}.txt").write_text(stdout)
            index[name] = {
                "exit": code,
                "json_sha256": (
                    payload_sha256(payload) if payload is not None else None
                ),
            }
    (GOLDEN_DIR / "cases.json").write_text(json.dumps(index, indent=2) + "\n")
    (GOLDEN_DIR / "parser_surface.json").write_text(
        json.dumps(parser_surface(), indent=2, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    sys.exit(record())
