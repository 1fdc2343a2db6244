"""The public surface rule: every public top-level function or class of nilgrowth has a library or CLI caller.

A public top-level def or class counts as used when another package module
imports it, when its own module loads it outside its own body, or when the
benchmark workload or the acceptance suite names it.  A re-export from
`__init__.py` is not a use.  Names resolve as Python resolves them: symtable
tells a load of the module global from a local of the same name.
"""
import ast
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nilgrowth"
NAMING_FILES = (ROOT / "perfbench" / "workload.py", ROOT / "tests" / "test_acceptance.py")


def _public_defs(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _global_loads(table: symtable.SymbolTable, skip: str | None) -> set[str]:
    """Module globals that table and its children load, leaving out the body of the top-level def or class skip."""
    loads = set()
    for symbol in table.get_symbols():
        if symbol.is_referenced() and (table.get_type() == "module" or symbol.is_global()):
            loads.add(symbol.get_name())
    for child in table.get_children():
        if not (table.get_type() == "module" and child.get_name() == skip):
            loads |= _global_loads(child, None)
    return loads


def _package_imports(tree: ast.Module) -> set[str]:
    """Names this module imports from the package, relatively or as nilgrowth.*."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "nilgrowth")
        for alias in node.names
    }


def _named(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unused_public_names(package: Path = PACKAGE, naming_files=NAMING_FILES) -> list[str]:
    """module.name for every public top-level def or class with no use under the rule above."""
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set().union(*(_named(ast.parse(path.read_text())) for path in naming_files))
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        imported = set().union(*(_package_imports(t) for m, t in trees.items() if m not in (module, "__init__")))
        table = symtable.symtable(sources[module], f"{module}.py", "exec")
        for name in _public_defs(tree):
            if name not in imported and name not in named and name not in _global_loads(table, name):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_library_or_cli_caller():
    unused = unused_public_names()
    assert not unused, f"public names with no library or CLI caller: {unused}"


def test_rule_resolves_locals_and_own_bodies(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported():\n    return exported()\n"  # a recursive call is inside its own body
        "def rank():\n    return 0\n"
        "def shadowed():\n    rank = 1\n    return rank\n"  # the local rank is not a load of rank
        "def loaded():\n    return 0\n"
        "TABLE = [loaded]\n"
        "class Imported:\n    pass\n"
        "def named():\n    return 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import Imported\n")
    naming = tmp_path / "naming.py"
    naming.write_text("import x\nx.named()\n")
    assert unused_public_names(tmp_path, (naming,)) == ["a.exported", "a.rank", "a.shadowed"]
