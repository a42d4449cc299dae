"""Import hygiene of the package and the tests, checked with ``ast``.

Every imported name must be read somewhere in its module (names listed in
``__all__`` count as read), and every import from ``piip`` must name a
module, or a name of a module, that exists.
"""

import ast
import importlib
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "piip").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _read_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere, in string annotations too, plus ``__all__``'s entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "AdamW" or "Var | None"
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = _read_names(tree)
    return [name for name in bound if name not in read]


def piip_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, imported name or None) for every import of ``piip`` in ``path``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names if a.name.split(".")[0] == "piip"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative imports occur only inside the package
                module = "piip" + ("." + module if module else "")
            if module.split(".")[0] == "piip":
                out += [(module, a.name) for a in node.names]
    return out


def test_unused_import_detection():
    source = 'import os\nimport numpy as np\nfrom a import b, c\n__all__ = ["c"]\nx: "np.ndarray"\n'
    assert unused_imports(source) == ["os", "b"]


def test_no_unused_imports():
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in FILES}
    assert {name: names for name, names in unused.items() if names} == {}


def test_piip_imports_resolve():
    missing = []
    for path in FILES:
        for module, name in piip_imports(path):
            try:
                mod = importlib.import_module(module)
            except ModuleNotFoundError:
                missing.append(f"{path.name}: {module}")
                continue
            if name is not None and not hasattr(mod, name):
                try:
                    importlib.import_module(f"{module}.{name}")
                except ModuleNotFoundError:
                    missing.append(f"{path.name}: {module}.{name}")
    assert missing == []
