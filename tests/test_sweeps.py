"""The one grid runner and the one table renderer."""

import pytest

from repro.cluster.spec import ClusterSpec, FaultTargetError
from repro.resilience import FaultSchedule, LinkDegradationFault, StragglerFault
from repro.sweeps import Column, render, run_grid


class TestRunGrid:
    def test_axis_order_is_row_order_one_row_per_cell(self):
        rows = run_grid(
            {"a": [1, 2], "b": "xyz"}, lambda a, b: {"a": a, "b": b}
        )
        # The first axis varies slowest: the nested-loop order.
        assert [(r["a"], r["b"]) for r in rows] == [
            (1, "x"), (1, "y"), (1, "z"), (2, "x"), (2, "y"), (2, "z"),
        ]

    def test_cells_run_in_order_exactly_once(self):
        seen = []
        run_grid({"i": range(3), "j": range(2)},
                 lambda i, j: seen.append((i, j)) or {})
        assert seen == [(i, j) for i in range(3) for j in range(2)]

    def test_empty_axis_yields_no_rows_and_calls_no_cell(self):
        def cell(**_):
            raise AssertionError("no point exists")

        assert run_grid({"a": [1, 2], "b": []}, cell) == []


class TestColumns:
    def test_keys_formats_and_object_rows(self):
        columns = (
            Column("name", "name"),
            Column("ms", "seconds", lambda s: f"{s * 1e3:.1f}"),
            Column("twice", lambda r: 2 * r["n"], "{:03d}"),
        )
        table = render(columns, [{"name": "a", "seconds": 0.0015, "n": 4}])
        assert table.splitlines()[0].split() == ["name", "ms", "twice"]
        assert table.splitlines()[2].split() == ["a", "1.5", "008"]
        # A non-mapping row is read by attribute.
        fault = StragglerFault(worker=3)
        assert render([Column("w", "worker")], [fault]).split()[-1] == "3"


class TestFaultTargets:
    """``with_faults`` used to check crash faults only; a straggler or
    link fault on a worker the cluster lacks silently never fired."""

    @pytest.mark.parametrize("fault, named", [
        (StragglerFault(worker=4), "StragglerFault worker=4"),
        (LinkDegradationFault(src=0, dst=9), "LinkDegradationFault dst=9"),
    ])
    def test_out_of_range_targets_are_typed_errors(self, fault, named):
        with pytest.raises(FaultTargetError, match=named) as err:
            ClusterSpec.ecs(4).with_faults(FaultSchedule([fault]))
        assert "0..3" in str(err.value)

    def test_wildcard_endpoints_and_in_range_targets_pass(self):
        schedule = FaultSchedule(
            [LinkDegradationFault(src=None, dst=3), StragglerFault(worker=0)]
        )
        assert ClusterSpec.ecs(4).with_faults(schedule).faults is schedule
