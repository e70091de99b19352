"""Static check: no kstruct module imports a name it never uses.

``__init__.py`` is exempt, since its imports are the package's exports.
A name counts as used when it is read anywhere in the module or listed
in the module's ``__all__``.
"""

import ast
from pathlib import Path

import kstruct

SRC = Path(kstruct.__file__).resolve().parent


def _imported(tree):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return sorted(
        "%s:%d %s" % (path.name, line, name)
        for name, line in _imported(tree)
        if name not in used
    )


def test_src_modules_have_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    unused = [item for path in modules for item in unused_imports(path)]
    assert unused == []


def test_unused_import_check_flags_a_dead_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import os\nimport numpy as np\nfrom math import pi, tau\n"
        "__all__ = ['tau']\n\ndef f():\n    return np.zeros(1) + pi\n",
        encoding="utf-8",
    )
    assert unused_imports(path) == ["mod.py:1 os"]
