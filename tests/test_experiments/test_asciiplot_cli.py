"""Tests for the ASCII chart renderer and the experiment CLI."""

import importlib

import pytest

from repro.experiments import __main__ as cli
from repro.experiments.asciiplot import line_chart
from repro.experiments.__main__ import EXPERIMENTS, main as cli_main


class TestLineChart:
    def test_basic_render(self):
        out = line_chart([1, 2, 4], {"a": [1.0, 2.0, 4.0]}, title="t")
        assert out.splitlines()[0] == "t"
        assert "o=a" in out
        assert "o" in out

    def test_multiple_series_distinct_markers(self):
        out = line_chart([1, 2], {"a": [1, 2], "b": [2, 1]})
        assert "o=a" in out and "x=b" in out

    def test_log_axes(self):
        out = line_chart(
            [1, 2, 4, 8], {"ips": [10, 20, 40, 80]}, logx=True, logy=True
        )
        # Perfect scaling on log-log is a straight diagonal: the marker
        # must appear in every quarter of the grid width.
        rows = [line for line in out.splitlines() if "|" in line]
        cols = sorted(
            line.index("o") for line in rows if "o" in line
        )
        assert len(cols) >= 3

    def test_log_requires_positive(self):
        with pytest.raises(ValueError, match="positive"):
            line_chart([0, 1], {"a": [1, 2]}, logx=True)

    def test_rows_end_in_their_last_mark(self):
        # An editor that strips trailing spaces must not change a report.
        out = line_chart([1, 2, 4], {"a": [1.0, 2.0, 4.0]}, title="t")
        assert all(line == line.rstrip() for line in out.splitlines())

    def test_flat_series_ok(self):
        out = line_chart([1, 2], {"a": [3.0, 3.0]})
        assert "o" in out

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one series"):
            line_chart([1, 2], {})
        with pytest.raises(ValueError, match="points"):
            line_chart([1, 2], {"a": [1.0]})
        with pytest.raises(ValueError, match="two x"):
            line_chart([1], {"a": [1.0]})
        with pytest.raises(ValueError, match="small"):
            line_chart([1, 2], {"a": [1, 2]}, width=4)


class TestCli:
    def test_help(self, capsys):
        assert cli_main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig6" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_runs_fast_experiment(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "vit-15b" in out

    def test_runs_fig2(self, capsys):
        assert cli_main(["fig2"]) == 0
        assert "BACKWARD_PRE" in capsys.readouterr().out

    def test_all_expands_among_names_without_duplicates(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "_run", lambda name, results: ran.append(name) or ("", []))
        fast = [name for name, row in EXPERIMENTS.items() if row[4]]
        assert "fig2" in fast and "fig5" not in fast
        assert cli_main(["fig2", "all", "fig5", "all", "fig5"]) == 0
        assert ran == ["fig2"] + [n for n in fast if n != "fig2"] + ["fig5"]

    def test_a_failing_claim_exits_1_and_is_listed(self, monkeypatch, capsys):
        table1 = importlib.import_module("repro.experiments.table1")
        monkeypatch.setattr(
            table1, "claims_table1",
            lambda rows: [("a planted shape", False), ("a kept shape", True)],
        )
        assert cli_main(["table1", "fig2"]) == 1
        out = capsys.readouterr().out
        assert "paper shapes: 1/2 hold\nFAILED: a planted shape\n" in out
        assert "a kept shape" not in out
        assert "BACKWARD_PRE" in out  # the rows after a failure still run


class TestExperimentTable:
    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_row_names_resolve_in_its_module(self, name):
        module, run, render, claims, fast = EXPERIMENTS[name]
        mod = importlib.import_module(f"repro.experiments.{module}")
        for fn in (run, render, claims):
            assert callable(getattr(mod, fn)), (name, fn)
        assert isinstance(fast, bool)
