"""``pytest benchmarks``: every experiment at full size, one case each,
held to every bar its ``check`` asserts."""

from __future__ import annotations

import pytest

from benchmarks import EXPERIMENTS
from benchmarks.harness import render


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(name, experiment_report):
    entry = EXPERIMENTS[name]
    rows = entry.run(quick=False)
    experiment_report(render(entry, rows))
    entry.check(rows, quick=False)
