"""The experiment harness: ``python -m benchmarks`` and the registry it
runs (``benchmarks/`` itself is outside tier-1's test paths)."""

import json
import os
import re

import pytest

import benchmarks.__main__ as cli
from benchmarks import EXPERIMENTS
from benchmarks.harness import render


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


def test_render_prints_span_trees_after_the_tables():
    rows = [{"mode": "nvm", "total_s": 0.5, "span_tree": "nvm:\nrecovery:nvm: 1 ms"}]
    text = render(_Entry(), rows)
    table, tree = text.split("\nnvm:\n")
    assert "total_s" in table and "span_tree" not in table
    assert tree == "recovery:nvm: 1 ms"


def test_e2_holds_each_phase_to_its_printed_tree():
    """A phase the table reports but the tree lacks fails E2's check."""

    def row(mode, phase, total_s, share):
        tree = f"{mode}:\nrecovery: 1 ms\n└─ {phase}: 1 ms"
        return {
            "mode": mode,
            "rows": 1,
            "rows_recovered": 1,
            "point_hits": 1,
            "total_s": total_s,
            f"{phase}_s": share * total_s,
            "span_tree": tree,
        }

    rows = [
        row("nvm", "pool_open", 0.001, 0.5),
        row("log_replay", "log_replay", 1.0, 0.9),
        row("log_checkpoint", "checkpoint_load", 0.1, 0.9),
    ]
    EXPERIMENTS["E2"].check(rows, quick=True)
    rows[0]["catalog_attach_s"] = 0.0001
    with pytest.raises(AssertionError):
        EXPERIMENTS["E2"].check(rows, quick=True)
