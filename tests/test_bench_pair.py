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
