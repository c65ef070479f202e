"""Every defaulted parameter of a public ``src/spt`` function is set by a caller outside ``tests/``.

An option earns its place when code that uses the library needs a value other
than its default.  The callers read are every ``src/spt`` module, the scripts
under ``scripts/`` and the code of ``perfbench/``.  A call passes a parameter
by keyword, by position, or through ``*args`` (every positional parameter
from the star on) or ``**kwargs`` (every parameter).  Calls are matched by
name, as ``f(...)`` or ``x.f(...)``.  A call inside a top-level function or
method that nothing else names is not counted, nor one inside a function
named only from such dead code: a pass-through that nothing calls keeps no
option alive.

Public means a top-level function, or a method of a top-level class, whose
name does not start with ``_``.  A function that no caller outside ``tests/``
calls at all is skipped: ``tests/test_public_surface.py`` holds those to
account.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, function, parameter) kept with no caller that sets it, and why
ALLOWED = {
    ("ode", "brentq", "maxiter"): "part of scipy's brentq contract, which ode.brentq repeats "
                                  "step for step; the tests reach its non-convergence branch "
                                  "through it",
}


def _public_functions(tree):
    """(name, node, number of leading parameters a call does not pass) of each
    public top-level function and public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield item.name, item, 0 if static else 1


def _defaulted(node, skip: int) -> list:
    """(name, positional index or None) of each parameter with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    found += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _owned_nodes(tree):
    """(owner, node) for every node of ``tree``: the owner is the top-level
    function or method of a top-level class that holds the node, None at
    module and class level and in dunder methods, which run unnamed."""
    for top in tree.body:
        for unit in top.body if isinstance(top, ast.ClassDef) else [top]:
            named = isinstance(unit, ast.FunctionDef) and not unit.name.startswith("__")
            owner = unit if named else None
            for node in ast.walk(unit):
                yield owner, node


def _name(node) -> str | None:
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _calls(trees) -> dict:
    """Function name -> list of ast.Call nodes that call it by that name,
    leaving out the calls in dead code (see the module docstring)."""
    owned = [pair for tree in trees for pair in _owned_nodes(tree)]
    dead = set()
    while True:
        named = {}   # name -> owners whose live code names it
        for owner, node in owned:
            if owner not in dead and _name(node) is not None:
                named.setdefault(_name(node), set()).add(owner)
        now = {owner for owner, _ in owned
               if owner is not None and not named.get(owner.name, set()) - {owner}}
        if now == dead:
            break
        dead = now
    calls = {}
    for owner, node in owned:
        if owner not in dead and isinstance(node, ast.Call) and _name(node.func) is not None:
            calls.setdefault(_name(node.func), []).append(node)
    return calls


def _passes(call: ast.Call, name: str, index) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if index is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return i <= index
    return index < len(call.args)


def _parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"))


def unset_options(src: Path, scripts: Path, perfbench: Path) -> list:
    """(module, function, parameter) of each defaulted parameter of a public
    ``src`` function that calls outside ``tests/`` reach but never set."""
    trees = {path.stem: _parse(path) for path in sorted(src.glob("*.py"))}
    callers = [*trees.values(), *map(_parse, sorted(scripts.glob("*.py"))),
               *map(_parse, sorted(perfbench.rglob("*.py")))]
    calls = _calls(callers)
    found = []
    for stem, tree in trees.items():
        for fname, node, skip in _public_functions(tree):
            sites = calls.get(fname, [])
            if not sites:
                continue
            for pname, index in _defaulted(node, skip):
                if not any(_passes(call, pname, index) for call in sites):
                    found.append((stem, fname, pname))
    return found


def test_every_option_in_spt_is_set_by_a_caller_outside_tests():
    unset = unset_options(ROOT / "src" / "spt", ROOT / "scripts", ROOT / "perfbench")
    assert [key for key in unset if key not in ALLOWED] == []


def test_every_allowed_option_is_still_unset():
    # an allowlist entry whose option is set, or gone, must leave the list
    unset = unset_options(ROOT / "src" / "spt", ROOT / "scripts", ROOT / "perfbench")
    assert set(ALLOWED) <= set(unset)


def test_the_option_guard_sees_each_form(tmp_path):
    src, scripts, bench = (tmp_path / d for d in ("src", "scripts", "perfbench"))
    for d in (src, scripts, bench):
        d.mkdir()
    (src / "a.py").write_text(
        "def f(x, by_key=1, by_pos=2, unset=3, *, kw_only=4, kw_unset=5):\n    pass\n\n"
        "def starred(x, a=1, b=2):\n    pass\n\n"
        "def double_starred(x, c=1):\n    pass\n\n"
        "def uncalled(x, d=1):\n    pass\n\n"
        "def inner(x, via_dead=1):\n    pass\n\n"
        "def pass_through(x, via_dead=1):\n    return inner(x, via_dead)\n\n"
        "def calls_pass_through(x):\n    return pass_through(x, 2)\n\n"
        "def recursive(x, r=1):\n    return recursive(x, r) + inner(x, via_dead=r)\n\n"
        "def _private(x, e=1):\n    pass\n\n"
        "class K:\n"
        "    def m(self, p=1, q=2):\n        pass\n\n"
        "    @staticmethod\n"
        "    def s(p=1, q=2):\n        pass\n\n"
        "    def _hidden(self, r=1):\n        pass\n\n"
        "_private(0)\n")
    (src / "b.py").write_text("from .a import f, inner\n\nf(0, by_key=1)\ninner(0)\n")
    (scripts / "run.py").write_text(
        "import spt.a\n\nspt.a.f(0, 1, 2, kw_only=0)\nspt.a.K().m(5)\nspt.a.K.s(5)\n")
    (bench / "tracer.py").write_text(
        "from spt.a import starred, double_starred\n\n"
        "args = (1,)\nstarred(0, *args)\ndouble_starred(0, **{})\n")
    assert unset_options(src, scripts, bench) == [
        ("a", "f", "unset"), ("a", "f", "kw_unset"), ("a", "inner", "via_dead"),
        ("a", "m", "q"), ("a", "s", "q")]
