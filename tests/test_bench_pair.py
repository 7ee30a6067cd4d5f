import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def pairs_of(parent, change):
    return [{"parent": {"metrics": {"m": a}}, "change": {"metrics": {"m": b}}}
            for a, b in zip(parent, change)]


@pytest.mark.parametrize("better,change,failed,within", [
    ("lower", [124.0] * 4, 0, True),     # 24 % worse, inside a 0.25 bound
    ("lower", [126.0] * 4, 0, False),    # 26 % worse
    ("lower", [50.0] * 4, 0, True),      # better by any amount
    ("lower", [100.0] * 4, 1, False),    # as fast, but an operation more failed
    ("higher", [76.0] * 4, 0, True),
    ("higher", [74.0] * 4, 0, False),
])
def test_within_bound_is_the_median_against_the_parents(better, change, failed, within):
    parent = [98.0, 100.0, 100.0, 102.0]
    stats = bench_pair.compare(pairs_of(parent, change), "m", better, 0.25,
                               {"parent": 0, "change": failed})
    assert stats["within_bound"] is within
    assert stats["bound"] == 0.25


@pytest.mark.parametrize("parent,resolved", [
    ([98.0, 100.0, 100.0, 102.0], True),    # IQR 3 on a median of 100
    ([70.0, 90.0, 110.0, 130.0], False),    # IQR 50, wider than the 25 the bound allows
])
def test_resolved_is_the_parents_iqr_against_the_bound(parent, resolved):
    stats = bench_pair.compare(pairs_of(parent, [100.0] * 4), "m", "lower", 0.25,
                               {"parent": 0, "change": 0})
    assert stats["resolved"] is resolved


# ten parent runs with quartiles 99 and 101 (IQR 2) on a median of 100
PARENT10 = [97.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 103.0]


@pytest.mark.parametrize("change,failed,holds", [
    ([p - 3.0 for p in PARENT10], 0, True),                  # 10/10 wins, gain 3 > IQR 2
    ([p - 3.0 for p in PARENT10[:9]] + [104.0], 0, True),    # 9/10 wins
    ([p - 3.0 for p in PARENT10[:8]] + [104.0] * 2, 0, False),  # 8/10 wins
    ([p - 1.0 for p in PARENT10], 0, False),                 # 10/10 wins, gain 1 inside the IQR
    ([p - 3.0 for p in PARENT10], 1, False),                 # an operation more failed
])
def test_gain_holds_needs_nine_wins_a_gain_past_the_iqr_and_no_more_failures(change, failed,
                                                                              holds):
    stats = bench_pair.compare(pairs_of(PARENT10, change), "m", "lower", 0.25,
                               {"parent": 0, "change": failed})
    assert stats["parent_iqr"] == 2.0
    assert stats["gain_holds"] is holds
