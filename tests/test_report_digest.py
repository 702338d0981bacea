import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from report_digest import digests  # noqa: E402

REPORT_FILES = ("cmc.csv", "top1.csv", "postrank_stats.csv", "summary.txt")


def test_report_digest_repeats_on_the_images_workload():
    first = digests("images", 1)
    assert list(first) == [f"images/1/{name}" for name in REPORT_FILES]
    assert all(re.fullmatch("[0-9a-f]{32}", digest) for digest in first.values())
    assert digests("images", 1) == first
