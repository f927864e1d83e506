"""Every module-level function and class in ``src/repro`` has a caller.

A definition that nothing names is code that nothing runs and no test
exercises.  A name counts as used when it appears as a name token -- not inside
a string or a comment -- anywhere in the source, tests, examples, tools or
benchmarks, other than at its own definition.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "examples", "tools", "benchmarks")


def _name_tokens() -> Counter:
    counts = Counter()
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            source = io.StringIO(path.read_text(encoding="utf-8")).readline
            counts.update(token.string for token in tokenize.generate_tokens(source)
                          if token.type == tokenize.NAME)
    return counts


def _module_level_definitions():
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{path.relative_to(ROOT)}:{node.lineno} {node.name}", node.name


def test_every_module_level_definition_is_referenced():
    counts = _name_tokens()
    unreferenced = [where for where, name in _module_level_definitions() if counts[name] <= 1]
    assert not unreferenced, "defined but never referenced:\n" + "\n".join(unreferenced)
