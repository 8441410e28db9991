"""Verdict rules of perf/compare.py."""

from perf.compare import spread, verdict


def test_within_bound_when_medians_agree():
    a = [100, 101, 99, 100, 102]
    b = [101, 102, 100, 101, 103]
    assert verdict(a, b, "lower", 0.10)[0] == "within bound"
    assert verdict(a, b, "higher", 0.10)[0] == "within bound"


def test_worse_when_the_gap_exceeds_the_bound_and_runs_separate():
    a = [100, 101, 99]
    b = [120, 121, 119]
    what, gap = verdict(a, b, "lower", 0.10)
    assert what == "worse" and abs(gap - 0.20) < 0.01
    assert verdict(b, a, "higher", 0.10)[0] == "worse"
    # The same numbers are an improvement in the other direction.
    assert verdict(a, b, "higher", 0.10)[0] == "within bound"


def test_unresolved_when_spread_exceeds_bound_and_runs_interleave():
    a = [80, 100, 120, 90, 110]
    b = [85, 125, 130, 95, 140]
    assert spread(a) > 0.10
    assert verdict(a, b, "lower", 0.10)[0] == "unresolved"
    # ... unless every B run reads better than every A run.
    assert verdict(a, [50, 60, 70], "lower", 0.10)[0] == "within bound"
    # ... or every B run reads worse: that is a regression, noisy or not.
    assert verdict(a, [200, 260, 320], "lower", 0.10)[0] == "worse"
