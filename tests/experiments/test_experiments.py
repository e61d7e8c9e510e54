"""Experiment modules: structure, rendering, CLI. (Numeric agreement with
the paper is pinned in tests/integration/test_paper_numbers.py.)"""

import pytest

from repro.experiments import EXPERIMENTS, table1
from repro.experiments.runner import main


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        paper_ids = {"fig1", "fig3", "fig4", "fig6", "fig7", "fig8",
                     "tab1", "gpu"}
        assert paper_ids <= set(EXPERIMENTS)
        # Extensions are allowed but must be explicitly labelled as such.
        for extra in set(EXPERIMENTS) - paper_ids:
            assert extra.startswith("ext_"), extra

    def test_every_module_has_interface(self):
        for module in EXPERIMENTS.values():
            assert hasattr(module, "run")
            assert hasattr(module, "render")
            assert hasattr(module, "PAPER")


class TestTable1:
    def test_matches_paper_exactly(self):
        result = table1.run()
        for (got_name, tflops, gbs), (paper_name, p_tflops, p_gbs) in zip(
            result.rows, table1.PAPER
        ):
            assert tflops == pytest.approx(p_tflops)
            assert gbs == pytest.approx(p_gbs)

    def test_render_contains_all_rows(self):
        out = table1.render(table1.run())
        assert "skylake_2s" in out
        assert "3.34" in out
        assert "480.0" in out


class TestRunnerCli:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "tab1" in out

    def test_unknown_id_rejected(self, capsys):
        assert main(["nope"]) == 2

    def test_single_experiment_runs(self, capsys):
        assert main(["tab1", "--no-persist"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
