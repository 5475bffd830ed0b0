"""Every public name in ``src/octformer`` is used by the program.

The program is ``src/``, ``scripts/`` and ``perfbench/``. A public top-level
function or class, or a public method of a top-level class, that none of them
names outside its own definition is code that only the tests run: the tests
should build what they need from the public surface (``tests/oracles.py``
holds such helpers) rather than keep it in ``src/``. A name counts as used
where it appears as a ``Name``, as an ``Attribute`` or as a whole string
constant (the benchmark's tracer patches names given as strings).

Likewise each defaulted parameter of a public function in ``src/octformer``
is a knob: some call in a program file must set it, or it is a knob that only
the tests turn. A call ``Cls.method(...)`` (or ``module.Cls.method(...)``)
with ``Cls`` a class of ``src/octformer`` sets only that class's method.
"""

import ast
import dataclasses
import pathlib

from octformer.config import NetworkSection
from octformer.network import NetworkConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAM = ("src", "scripts", "perfbench")

# name -> why it stays although no program file names it
ALLOWED = {
    "gelu": "the exact GELU reference that tensor.gelu_mlp is checked against",
    "classification_head": "the paper's classification head: README names it and "
                           "its weights are in every checkpoint",
}

# function.parameter -> why it keeps its default although no program call sets it
ALLOWED_DEFAULTS: dict[str, str] = {}


def _program_files(root=ROOT):
    for top in PROGRAM:
        yield from sorted((root / top).rglob("*.py"))


def _definitions(tree: ast.Module):
    """Public top-level functions and classes, and public methods of
    top-level classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, functions))


def _named(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def unused_public_names(allowed=ALLOWED) -> list[tuple[str, str]]:
    """(file:line, name) of each public definition in ``src/octformer`` that
    no program file names outside the definition itself."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _program_files()}
    uses: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = _named(node)
            if name is not None:
                uses.setdefault(name, []).append((path, node.lineno))
    unused = []
    for path, tree in trees.items():
        if ROOT / "src" / "octformer" not in path.parents:
            continue
        for d in _definitions(tree):
            if d.name.startswith("_") or d.name in allowed:
                continue  # private and dunder names, and the allowlist
            outside = [u for u in uses.get(d.name, ())
                       if not (u[0] == path and d.lineno <= u[1] <= d.end_lineno)]
            if not outside:
                unused.append((f"{path.relative_to(ROOT)}:{d.lineno}", d.name))
    return unused


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef, method: bool):
    """(position or None, name) of each parameter with a default; a method's
    positions start after its ``self`` or ``cls``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    shift = int(method and not static)
    yield from ((i - shift, a.arg) for i, a in enumerate(positional) if i >= first)
    yield from ((None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


def _sets(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter, by position, keyword or ``*``/``**``."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unset_defaults(allowed=ALLOWED_DEFAULTS, root=ROOT) -> list[tuple[str, str]]:
    """(file:line, function.parameter) of each defaulted parameter of a public
    function or method in ``src/octformer`` under ``root`` that no program call
    passes. A call ``Cls.method(...)``, ``Cls`` a class of ``src/octformer``,
    matches that class's method only; any other call matches by the called
    name, as ``unused_public_names`` matches uses."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in _program_files(root)}
    src = {path: tree for path, tree in trees.items()
           if root / "src" / "octformer" in path.parents}
    classes = {c.name for tree in src.values() for c in tree.body
               if isinstance(c, ast.ClassDef)}
    calls: dict[tuple[str | None, str], list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _named(node.func)
                if name is None:
                    continue
                owner = _named(getattr(node.func, "value", None))  # X of X.name(...)
                key = (owner if owner in classes else None, name)
                calls.setdefault(key, []).append(node)
    unset = []
    for path, tree in src.items():
        owners = {m: c.name for c in tree.body if isinstance(c, ast.ClassDef)
                  for m in c.body}
        for d in _definitions(tree):
            if d.name.startswith("_") or isinstance(d, ast.ClassDef):
                continue
            owner = owners.get(d)
            matching = calls.get((None, d.name), [])
            if owner is not None:
                matching = matching + calls.get((owner, d.name), [])
            for position, arg in _defaulted(d, method=owner is not None):
                knob = f"{d.name}.{arg}"
                if knob not in allowed and not any(
                        _sets(c, position, arg) for c in matching):
                    unset.append((f"{path.relative_to(root)}:{d.lineno}", knob))
    return unset


def test_every_public_name_in_src_is_used_by_the_program():
    assert unused_public_names() == []


def test_the_allowlist_holds_only_unused_names():
    """An allowlist entry that the program now names, or that is gone, is stale."""
    assert sorted(name for _, name in unused_public_names(allowed=())) == sorted(ALLOWED)


def test_every_defaulted_parameter_is_set_by_the_program():
    assert unset_defaults() == []


def test_a_class_method_call_sets_only_that_class_method(tmp_path):
    package = tmp_path / "src" / "octformer"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "class A:\n"
        "    @classmethod\n"
        "    def init(cls, n, dtype=None): ...\n"
        "class B:\n"
        "    @classmethod\n"
        "    def init(cls, n, dtype=None): ...\n"
        "    def grow(self, by=1): ...\n"
        "def make(n, dtype=None): ...\n"
        "def run(b):\n"
        "    m.A.init(1, dtype=float)\n"  # sets A.init only
        "    b.grow(2)\n"  # an instance call matches by name
        "    make(1, float)\n")  # a bare name matches the function
    assert unset_defaults(allowed=(), root=tmp_path) == [
        ("src/octformer/m.py:6", "init.dtype")]


def test_the_default_allowlist_holds_only_unset_parameters():
    assert sorted(knob for _, knob in unset_defaults(allowed=())) == sorted(ALLOWED_DEFAULTS)


def test_the_network_config_holds_what_a_run_config_sets():
    """``NetworkConfig`` holds the run config's network section (its preset
    aside) and two more fields, ``fpn_channels`` and ``head_hidden``: no run
    config sets them, but tests shrink the FPN head with them (``TINY`` in
    test_network.py, the oracle's ``random_model`` and the toy checkpoints), so
    the float64 gradchecks and the naive-network oracle stay fast."""

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert names(NetworkConfig) == (names(NetworkSection) - {"preset"}
                                    | {"fpn_channels", "head_hidden"})
