"""Print the project's size numbers as one JSON line.

    python3 tools/size_report.py

- ``src_lines``: the lines of every ``src/**/*.py`` file, as ``wc -l``
  counts them (newline characters);
- ``parameters``: the parameters of every ``def`` and ``lambda`` in those
  files, by their syntax tree, ``*args`` and ``**kwargs`` included and
  ``self`` and ``cls`` not;
- ``config_fields``: the fields of ``ExperimentConfig``.

Run it from anywhere: the paths are taken relative to this file.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _parameters(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> int:
    args = node.args
    named = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return sum(arg is not None and arg.arg not in ("self", "cls") for arg in named)


def size_report(src: Path = SRC) -> dict[str, int]:
    lines = parameters = fields = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_bytes()
        lines += text.count(b"\n")
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                parameters += _parameters(node)
            elif isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig":
                fields += sum(isinstance(item, ast.AnnAssign) for item in node.body)
    return {"src_lines": lines, "parameters": parameters, "config_fields": fields}


if __name__ == "__main__":
    print(json.dumps(size_report()))
