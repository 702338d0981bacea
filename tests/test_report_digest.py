import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from report_digest import compare, digests  # noqa: E402

REPORT_FILES = ("cmc.csv", "top1.csv", "postrank_stats.csv", "summary.txt")


def test_report_digest_repeats_on_the_images_workload():
    first = digests("images", 1)
    assert list(first) == [f"images/1/{name}" for name in REPORT_FILES]
    assert all(re.fullmatch("[0-9a-f]{32}", digest) for digest in first.values())
    assert digests("images", 1) == first


def test_compare_names_each_changed_and_one_sided_key():
    assert compare({"a": "1", "b": "2"}, {"a": "1", "b": "2"}) == ["identical"]
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"a": "1", "b": "5", "d": "4"}
    assert compare(old, new) == ["differs: b", "only old: c", "only new: d"]
