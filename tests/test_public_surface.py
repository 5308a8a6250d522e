"""The public surface: the README's "Public API" section names, per module,
exactly the names that ``schurzeta/__init__.py`` imports, and every public
module-level function has a caller in the package or the benchmark, or is
exported."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schurzeta"


def _exports() -> dict[str, set[str]]:
    """module -> the names __init__.py imports from it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    out: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            out.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return out


def _readme_api() -> dict[str, set[str]]:
    """module -> the backticked names of its bullet in the README's "Public
    API" section, a bullet being "- `schurzeta.<module>`: `name`, ..."."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `schurzeta\.(\w+)`:(.*?)(?=^- |\Z)", section, re.M | re.S)
    return {module: set(re.findall(r"`(\w+)`", body)) for module, body in bullets}


def _references(path: Path) -> list[tuple[str, str]]:
    """(name, enclosing top-level def or "") for every name or attribute
    the file reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, ast.FunctionDef) else ""
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
    return out


def test_readme_public_api_lists_the_exports_of_init():
    assert _readme_api() == _exports()


def test_every_public_function_is_called_or_exported():
    exported = set().union(*_exports().values())
    # the benchmark's own tests call nothing for it
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    refs = [(path.stem, name, owner) for path in sources for name, owner in _references(path)]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_"):
                continue
            name = stmt.name
            # a def calling itself is not a caller
            called = any(n == name and (m, o) != (path.stem, name) for m, n, o in refs)
            if name not in exported and not called:
                unused.append(f"{path.stem}.{name}")
    assert unused == []
