import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from size_report import size_report  # noqa: E402


def test_size_report_counts_lines_parameters_and_config_fields(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        "class ExperimentConfig:\n"
        "    seeds: tuple = ()\n"
        "    gamma: float = 1.0\n"
        "    LIMIT = 3\n"
        "    def check(self, a, *rest, b=1, **extra):\n"
        "        return lambda x, y=0: x\n"
    )
    (tmp_path / "pkg" / "b.py").write_text("@classmethod\ndef make(cls, /, p):\n    pass")
    (tmp_path / "notes.txt").write_text("not python\n" * 5)
    # 6 + 2 lines (the last one unterminated, as wc -l counts); a, rest, b,
    # extra, x, y and p; seeds and gamma
    assert size_report(tmp_path) == {"src_lines": 8, "parameters": 7, "config_fields": 2}


def test_size_report_prints_one_json_line_for_src():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "size_report.py")],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.count("\n") == 1
    assert json.loads(out) == size_report()
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py"))
    assert json.loads(out)["src_lines"] == lines
