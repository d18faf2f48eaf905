"""Static checks on the package source: every import is used, and every
private module-level function has a caller.  A deletion that leaves an
import or a helper behind fails here."""

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


def test_every_private_function_is_referenced():
    reads = set().union(*map(_reads, MODULES.values()))
    dead = [f"{name}.{node.name}" for name, tree in MODULES.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in reads]
    assert dead == []
