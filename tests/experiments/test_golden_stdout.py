"""The printed figure numbers, pinned byte for byte.

``figures_stdout.txt`` is the experiment CLI's stdout for every
experiment whose output is deterministic: all of them except
``ext_kernel_precision`` and ``ext_measured_roofline``, which time or
measure numpy kernels on the host. Regenerate it with::

    PYTHONPATH=src python -m repro.experiments fig1 fig3 fig4 fig6 fig7 \\
        fig8 tab1 gpu ext_mobilenet ext_depth_scaling ext_precision \\
        --no-persist > tests/experiments/figures_stdout.txt

and record in CHANGES.md why the numbers moved. ``--no-persist`` is part
of the pin: cost keys hash a hardware preset's name, not its values, so
a warm disk cache would print the old numbers after a preset changed.
"""

from pathlib import Path

from repro.experiments.runner import main

GOLDEN = Path(__file__).with_name("figures_stdout.txt")

IDS = ("fig1", "fig3", "fig4", "fig6", "fig7", "fig8", "tab1", "gpu",
       "ext_mobilenet", "ext_depth_scaling", "ext_precision")


def test_figure_stdout_matches_golden(capsys):
    assert main([*IDS, "--no-persist"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
