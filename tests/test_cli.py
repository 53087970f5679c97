"""Tests for the ``python -m repro`` dispatcher."""

import re

import pytest

import repro.__main__ as cli
from repro.__main__ import main
from repro.experiments import harness


class TestDispatcher:
    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig13" in out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_badcase_runs(self, capsys):
        assert main(["badcase", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "Bad case k=3" in out

    def test_a_refused_input_is_one_line_and_exit_two(self, capsys):
        assert main(["soak", "--rate", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("repro: ConfigurationError: PoissonStream."
                                "rate must be a finite real in [1e-300, inf), "
                                "got nan\n")

    def test_other_exceptions_keep_their_traceback(self, monkeypatch):
        def broken(argv):
            raise KeyError("a fault, not a refused input")

        monkeypatch.setitem(cli._COMMANDS, "soak", broken)
        with pytest.raises(KeyError):
            main(["soak"])

    def test_help_lists_matrix(self, capsys):
        main(["--help"])
        assert "matrix" in capsys.readouterr().out

    def test_matrix_runs_and_resumes(self, capsys, tmp_path):
        argv = ["matrix", "--family", "mini", "--planners", "NTP",
                "--scale", "0.5", "--results-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Matrix mini-s0.5" in first.out and "Mini" in first.out
        # Second invocation resumes entirely from the stored cells.
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "[cached] Mini--NTP" in second.err


@pytest.fixture(scope="module")
def table2_store(tmp_path_factory):
    """A results dir holding the ``table2`` matrix at scale 0.3."""
    root = str(tmp_path_factory.mktemp("results"))
    assert main(["matrix", "--family", "table2", "--scale", "0.3",
                 "--results-dir", root]) == 0
    return root


class TestTable2Store:
    """Table III and Figs. 10-12 render the cells ``matrix --family
    table2`` stored, running none, and print what a fresh run prints."""

    @pytest.mark.parametrize("command", ["table3", "fig10", "fig11",
                                         "fig12"])
    def test_renders_from_the_matrix_store(self, command, table2_store,
                                           capsys, monkeypatch):
        def run_again(cell):
            raise AssertionError(f"{cell.cell_id} was simulated again")

        argv = [command, "--scale", "0.3"]
        with monkeypatch.context() as patch:
            patch.setattr(harness, "execute_cell", run_again)
            assert main(argv + ["--results-dir", table2_store]) == 0
        stored = capsys.readouterr().out
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        if command == "fig11":
            # Its seconds are each run's own wall clock.
            stored, fresh = (re.sub(r"\d+\.\d+", "#", out)
                             for out in (stored, fresh))
        assert stored == fresh
