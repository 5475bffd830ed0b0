"""Every public name in ``src/octformer`` is used by the program.

The program is ``src/``, ``scripts/`` and ``perfbench/``. A public top-level
function or class, or a public method of a top-level class, that none of them
names outside its own definition is code that only the tests run: the tests
should build what they need from the public surface (``tests/oracles.py``
holds such helpers) rather than keep it in ``src/``. A name counts as used
where it appears as a ``Name``, as an ``Attribute`` or as a whole string
constant (the benchmark's tracer patches names given as strings).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAM = ("src", "scripts", "perfbench")

# name -> why it stays although no program file names it
ALLOWED = {
    "gelu": "the exact GELU reference that tensor.gelu_mlp is checked against",
    "classification_head": "the paper's classification head: README names it and "
                           "its weights are in every checkpoint",
}


def _program_files():
    for top in PROGRAM:
        yield from sorted((ROOT / top).rglob("*.py"))


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


def test_every_public_name_in_src_is_used_by_the_program():
    assert unused_public_names() == []


def test_the_allowlist_holds_only_unused_names():
    """An allowlist entry that the program now names, or that is gone, is stale."""
    assert sorted(name for _, name in unused_public_names(allowed=())) == sorted(ALLOWED)
