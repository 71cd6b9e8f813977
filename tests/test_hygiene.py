"""Source hygiene checks that would otherwise need a linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # the package __init__ imports names only to re-export them
    paths = [p for p in sorted((ROOT / "src" / "jastit").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py"))
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert paths
    unused = [hit for p in paths for hit in _unused_imports(p)]
    assert unused == []


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


def _named(tree: ast.AST):
    """Every name read, imported or used as an attribute in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_unreferenced_definitions():
    # dunders are read by the interpreter and packaging; cli.main looks the
    # _cmd_* handlers up by name
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for top in ("src", "tests", "scripts")
             for p in sorted((ROOT / top).rglob("*.py"))}
    named = {name for tree in trees.values() for name in _named(tree)}
    unreferenced = [
        f"{p.relative_to(ROOT)}:{line} {name}"
        for p, tree in trees.items() if p.parent == ROOT / "src" / "jastit"
        for name, line in _top_level_names(tree)
        if name not in named and not name.startswith(("__", "_cmd_"))]
    assert unreferenced == []


def test_oracles_share_only_the_listed_private_names():
    # the referees restate what the package computes; each private package
    # name they use is code they no longer check independently
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    modules: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jastit"):
            for alias in node.names:
                if node.module == "jastit":
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    used.add(f"{node.module.removeprefix('jastit.')}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            used.add(f"{node.value.id}.{node.attr}")
    allowed = {"syntax._KEYWORDS", "syntax._too_deep", "semantics._joint_choice_options"}
    assert sorted(used - allowed) == []
