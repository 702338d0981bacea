"""The README's Quickstart runs as written, and its Configuration table
lists exactly the keys the config file takes."""

import re
import runpy
from pathlib import Path

from reidpipe.cli import main
from reidpipe.config import FREE_SECTIONS, KEYS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _fenced_block(first_line: str) -> str:
    """The README's fenced code block that begins with ``first_line``."""
    blocks = [b for b in re.findall(r"^```\w*\n(.*?)^```", README, re.M | re.S)
              if b.startswith(first_line)]
    assert len(blocks) == 1, first_line
    return blocks[0]


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    (tmp_path / "make_demo.py").write_text(_fenced_block("# make_demo.py"))
    (tmp_path / "config.ini").write_text(_fenced_block("; config.ini"))
    monkeypatch.chdir(tmp_path)
    runpy.run_path("make_demo.py")
    assert main(["eval", "-c", "config.ini"]) == 0
    summary = (tmp_path / "report" / "summary.txt").read_text()
    assert summary.startswith("seeds: 0,1,2\nrepresentations: R1\n")


def test_readme_configuration_table_is_the_config_key_table():
    rows = dict(re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", README, re.M))
    assert set(rows) == {section for section, _ in KEYS} | set(FREE_SECTIONS)
    listed = [
        (section, key)
        for section, cell in rows.items()
        if section not in FREE_SECTIONS
        for key in re.findall(r"`(\w+)`", cell)
    ]
    assert sorted(listed) == sorted(KEYS)
