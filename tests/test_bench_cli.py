"""The experiment harness: ``python -m benchmarks`` and the registry it
runs (``benchmarks/`` itself is outside tier-1's test paths)."""

import json
import os
import re

import pytest

import benchmarks.__main__ as cli
from benchmarks import EXPERIMENTS


def test_cli_runs_one_experiment(capsys, tmp_path):
    """The selected entry runs at quick size, its bars are checked, and
    the report and its raw rows are written."""
    out = str(tmp_path / "report.txt")
    argv = ["--quick", "--only", "e7", "--out", out, "--json-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert "E7: cost of the volatile delta-index catch-up" in text
    assert "bars held" in text and "E1:" not in text
    with open(out) as f:
        assert "second_query_ms" in f.read()
    with open(tmp_path / "BENCH_e7.json") as f:
        (row,) = json.load(f)["E7"]
    assert row["caught_up_rows"] == row["delta_rows"]


class _Entry:
    TITLE = "fake"

    def __init__(self, bar_holds=True):
        self.bar_holds, self.ran = bar_holds, []

    def run(self, quick):
        self.ran.append(quick)
        return [{"x": 1}]

    def check(self, rows, quick):
        assert self.bar_holds, "planted failing bar"


def test_cli_only_filter(monkeypatch, capsys):
    picked, skipped = _Entry(), _Entry()
    monkeypatch.setattr(cli, "EXPERIMENTS", {"E1": skipped, "E2": picked})
    assert cli.main(["--quick", "--only", " e2 "]) == 0
    assert picked.ran == [True] and skipped.ran == []
    with pytest.raises(SystemExit):
        cli.main(["--only", "E99"])


def test_cli_exits_1_when_a_bar_fails(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "EXPERIMENTS", {"E1": _Entry(), "E2": _Entry(bar_holds=False)}
    )
    assert cli.main([]) == 1
    captured = capsys.readouterr()
    assert "BAR FAILED" in captured.out and "planted failing bar" in captured.out
    assert "bars failed: E2" in captured.err


def test_registry_matches_experiments_md():
    """One entry per ``## E<n>`` section of EXPERIMENTS.md, plus OBS."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "EXPERIMENTS.md")
    with open(path) as f:
        headings = re.findall(r"^## (E\d+)\b", f.read(), flags=re.MULTILINE)
    assert list(EXPERIMENTS) == headings + ["OBS"]
    for entry in EXPERIMENTS.values():
        assert entry.__doc__ and callable(entry.run) and callable(entry.check)
