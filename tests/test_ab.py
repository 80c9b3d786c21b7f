"""The summary of ``tools/ab.py`` on canned ``bench/run.py`` result lines;
no benchmark is run."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [
    {"name": "gb_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "reduce_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
]


def _stdout(gb_s, reduce_per_s, attempted, failed=0):
    """A ``bench/run.py`` output: metric lines, then the result object."""
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "gb_s": {"value": gb_s, "unit": "s"},
            "reduce_per_s": {"value": reduce_per_s, "unit": "1/s"},
        },
    }
    return f"capped-series gb_s = {gb_s} s\n" + json.dumps(result) + "\n"


def test_summary_of_canned_runs():
    parent = [
        ab.parse_result(_stdout(g, r, 100))
        for g, r in ((0.16, 1500.0), (0.15, 1520.0), (0.17, 1480.0), (0.16, 1510.0))
    ]
    change = [
        ab.parse_result(_stdout(g, r, 110, failed))
        for g, r, failed in (
            (0.14, 1650.0, 0), (0.16, 1660.0, 1), (0.15, 1640.0, 0), (0.14, 1470.0, 0)
        )
    ]
    lines = ab.summary(METRICS, parent, change)
    assert lines[0].split() == ["metric", "parent", "change", "parent", "IQR", "ratio", "wins"]
    # medians 0.16 and 0.145; parent quartiles 0.1525 and 0.1675; lower wins
    # in pairs 1, 3 and 4 (pair 2 is worse)
    assert lines[1].split() == ["gb_s", "0.16", "0.145", "9.4%", "0.906", "3/4"]
    # medians 1505 and 1645; parent quartiles 1485 and 1517.5; higher wins
    # in pairs 1 to 3
    assert lines[2].split() == ["reduce_per_s", "1505", "1645", "2.2%", "1.093", "3/4"]
    assert lines[3:] == [
        "pair 1: parent attempted 100 failed 0, change attempted 110 failed 0",
        "pair 2: parent attempted 100 failed 0, change attempted 110 failed 1",
        "pair 3: parent attempted 100 failed 0, change attempted 110 failed 0",
        "pair 4: parent attempted 100 failed 0, change attempted 110 failed 0",
    ]


def test_iqr_uses_the_exclusive_quartiles():
    assert ab.iqr([3.0]) == 0.0
    # the exclusive quartiles of 1..4 are 1.25 and 3.75
    assert ab.iqr([1.0, 2.0, 3.0, 4.0]) == 2.5
