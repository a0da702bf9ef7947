"""Every Python file of the repository parses as Python 3.10, the oldest supported version."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_python_3_10():
    # syntax only: ast.parse rejects, as far as it can, grammar newer than
    # 3.10 (`except*`, say); a call to a library name added in 3.11 passes
    paths = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
