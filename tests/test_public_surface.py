"""Every public top-level function and class of ``src/spt`` has a caller outside ``tests/``.

A caller is another ``src/spt`` module, a use in its own module, a script
under ``scripts/``, or its name anywhere in the code of ``perfbench/`` (the
tracer wraps functions by name).  Its own ``def`` and the ``spt/__init__``
re-export do not count: a route that only its tests reach belongs in
``tests/`` as an oracle, or is deleted.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _used_names(tree) -> set:
    """Every name that ``tree`` loads, reads as an attribute or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _public_definitions(tree) -> list:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unreferenced_public_names(src: Path, scripts: Path, perfbench: Path) -> list:
    """(module, name) of each public top-level definition under ``src`` with
    none of the callers that the module docstring counts."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    used = {stem: _used_names(tree) for stem, tree in trees.items()}
    outside = set().union(*(_used_names(ast.parse(path.read_text(encoding="utf-8")))
                            for path in sorted(scripts.glob("*.py"))))
    bench = set(re.findall(r"\w+", "\n".join(path.read_text(encoding="utf-8")
                                             for path in sorted(perfbench.rglob("*.py")))))
    found = []
    for stem, tree in trees.items():
        for name in _public_definitions(tree):
            if name in outside or name in bench or any(name in names
                                                       for names in used.values()):
                continue
            found.append((stem, name))
    return found


def test_every_public_name_in_spt_has_a_caller_outside_tests():
    assert unreferenced_public_names(ROOT / "src" / "spt", ROOT / "scripts",
                                     ROOT / "perfbench") == []


def test_the_public_surface_guard_sees_each_form(tmp_path):
    src, scripts, bench = (tmp_path / d for d in ("src", "scripts", "perfbench"))
    for d in (src, scripts, bench):
        d.mkdir()
    (src / "__init__.py").write_text("from .a import lonely, exported\n")
    (src / "a.py").write_text(
        "class Kept:\n    pass\n\n"
        "def lonely():\n    return 1\n\n"
        "def exported():\n    return 2\n\n"
        "def _private():\n    return 3\n\n"
        "def local():\n    return Kept()\n\n"
        "def scripted():\n    return 4\n\n"
        "def traced():\n    return 5\n")
    (src / "b.py").write_text("from .a import local\n\nlocal()\n")
    (scripts / "run.py").write_text("import spt.a\n\nspt.a.scripted()\n")
    (bench / "tracer.py").write_text('_FUNCTIONS = {"a": ("traced",)}\n')
    assert unreferenced_public_names(src, scripts, bench) == [("a", "lonely"), ("a", "exported")]
