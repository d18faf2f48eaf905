"""Static checks on the package source: every import is used, and every
private module-level function and private method has a caller.  A deletion
that leaves an import or a helper behind fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flipiet"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def _reads(tree):
    """Identifiers and attribute names read in a module, and the entries of
    its __all__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            out.update(ast.literal_eval(node.value))
    return out


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__":          # the package's imports are its exports
            continue
        reads = _reads(tree)
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in reads]
    assert unused == []


def _defs(body, prefix):
    """(qualified name, bare name) of each function defined in a module body,
    and of each method of the classes defined there."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield f"{prefix}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}.{node.name}")


def test_every_private_function_is_referenced():
    reads = set().union(*map(_reads, MODULES.values()))
    dead = [qualified for name, tree in MODULES.items()
            for qualified, bare in _defs(tree.body, name)
            if bare.startswith("_") and not bare.startswith("__")
            and bare not in reads]
    assert dead == []
