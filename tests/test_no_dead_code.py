"""Every top-level definition in the package has a use somewhere.

A function, class or UPPER_CASE constant of ``src/gshe`` whose name appears
nowhere in ``src/``, ``tests/``, ``scripts/`` or ``perfbench/`` except on its
own definition line is dead code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gshe"
SEARCHED = ("src", "tests", "scripts", "perfbench")


def _definitions(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node.lineno


def test_every_top_level_definition_is_used():
    sources = {path: path.read_text().splitlines()
               for top in SEARCHED for path in (ROOT / top).rglob("*.py")}
    words = {}
    for path, lines in sources.items():
        for lineno, line in enumerate(lines, 1):
            for word in set(re.findall(r"\w+", line)):
                words.setdefault(word, set()).add((path, lineno))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno in _definitions(path):
            if not words.get(name, set()) - {(path, lineno)}:
                dead.append(f"{path.name}:{lineno} {name}")
    assert not dead, "defined but never used: " + ", ".join(dead)
