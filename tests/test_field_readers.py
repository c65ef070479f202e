"""Every dataclass field of ``src/spt`` is read by name somewhere.

A read is an attribute load ``x.name`` in ``src/spt``, ``tests/``,
``scripts/`` or ``perfbench/``.  The check goes by name alone, whatever the
object.  Passing the field as a constructor keyword, or assigning it, does not
count: a field that nothing reads only carries a value that no caller uses, or
repeats the caller's own input back to it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _fields(tree) -> list:
    """(class, field) of each dataclass field declared in ``tree``."""
    return [(node.name, stmt.target.id) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _attribute_reads(tree) -> set:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(src: Path, *readers: Path) -> list:
    """(module, class, field) of each dataclass field under ``src`` whose name
    no file under ``src`` or ``readers`` loads as an attribute."""
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))

    reads = set().union(*(_attribute_reads(parse(path))
                          for root in (src, *readers) for path in sorted(root.rglob("*.py"))))
    return [(path.stem, cls, name) for path in sorted(src.glob("*.py"))
            for cls, name in _fields(parse(path)) if name not in reads]


def test_every_dataclass_field_in_spt_is_read():
    assert unread_fields(ROOT / "src" / "spt", ROOT / "tests", ROOT / "scripts",
                         ROOT / "perfbench") == []


def test_the_field_guard_sees_each_form(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    for d in (src, tests):
        d.mkdir()
    (src / "a.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass R:\n    read: float\n    keyword: int\n    stored: str = ''\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass S:\n    tested: int\n    named: int\n\n"
        "class Plain:\n    annotated: int\n\n"
        "def make():\n"
        "    r = R(read=1.0, keyword=2)\n"
        "    r.stored = 'x'\n"
        "    return r.read + getattr(r, 'keyword')\n")
    (tests / "test_a.py").write_text("from a import S\n\nassert S(1, 2).tested == 1\n"
                                     "named = 2\n")
    assert unread_fields(src, tests) == [("a", "R", "keyword"), ("a", "R", "stored"),
                                         ("a", "S", "named")]
