"""The A/B pair summary of ``benchmarks/ab_pairs.py`` (claim rule only;
running the benchmark itself is too slow for tier 1)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

SPEC = {
    "end_to_end": [
        {"name": "slots_per_s", "unit": "1/s", "better": "higher"},
        {"name": "setup_s", "unit": "s", "better": "lower"},
    ]
}


def _runs(values):
    return [
        {"metrics": {name: {"value": v} for name, v in zip(
            ("slots_per_s", "setup_s"), pair)}, "failed": 0}
        for pair in values
    ]


def _row(rows, name):
    return next(row for row in rows if row["metric"] == name)


def test_clear_gain_is_claimed():
    base = _runs([(100 + i, 1.0) for i in range(10)])
    change = _runs([(130 + i, 1.0) for i in range(10)])
    row = _row(ab_pairs.summarize(SPEC, base, change), "slots_per_s")
    assert row["wins"] == 10 and row["losses"] == 0
    assert row["beyond_base_iqr"] and row["gain"]
    assert not row["worse_beyond_base_iqr"]
    assert row["ratio"] == pytest.approx(134.5 / 104.5)
    worse = _row(ab_pairs.summarize(SPEC, change, base), "slots_per_s")
    assert worse["losses"] == 10 and worse["worse_beyond_base_iqr"]
    assert not worse["gain"]


def test_lower_is_better_and_ties_count_for_neither():
    base = _runs([(100, 2.0)] * 10)
    change = _runs([(100, 1.0)] * 9 + [(100, 2.0)])
    rows = ab_pairs.summarize(SPEC, base, change)
    setup = _row(rows, "setup_s")
    assert setup["wins"] == 9 and setup["losses"] == 0 and setup["gain"]
    speed = _row(rows, "slots_per_s")
    assert speed["wins"] == speed["losses"] == 0 and not speed["gain"]


def test_no_claim_within_spread_or_below_ten_pairs():
    base = _runs([(v, 1.0) for v in (90, 110) * 5])
    change = _runs([(v + 1, 1.0) for v in (90, 110) * 5])
    row = _row(ab_pairs.summarize(SPEC, base, change), "slots_per_s")
    assert row["wins"] == 10 and not row["beyond_base_iqr"]
    assert not row["gain"]
    few = ab_pairs.summarize(SPEC, _runs([(100, 1.0)] * 3),
                             _runs([(200, 1.0)] * 3))
    assert not _row(few, "slots_per_s")["gain"]
