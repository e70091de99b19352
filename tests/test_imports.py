"""Static checks on the package source.

No kstruct module imports a name it never uses.  ``__init__.py`` is
exempt, since its imports are the package's exports.  A name counts as
used when it is read anywhere in the module or listed in the module's
``__all__``.

No public name exists only for tests: every name in a submodule's
``__all__`` is read somewhere in the source outside its own definition,
as a name imported from its module or as ``module.name``.  A name that
the package exports may instead be read by a demo, which imports it
from ``kstruct`` or from its module.

The README's API section lists every name the package exports, one
line each, and no other.
"""

import ast
import re
from pathlib import Path

import kstruct

SRC = Path(kstruct.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = Path(__file__).resolve().parent.parent / "README.md"


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


def _all_names(tree):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return ast.literal_eval(node.value)
    return []


def _bindings(tree, modules, exports):
    """(name -> (module, name) imported from a sibling or from the
    package, alias -> sibling module) for the import statements of one
    module or demo."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "kstruct"
        ):
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                bound = alias.asname or alias.name
                if source in modules:
                    names[bound] = (source, alias.name)
                elif alias.name in modules:
                    aliases[bound] = alias.name
                elif alias.name in exports:
                    names[bound] = exports[alias.name]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kstruct" and len(parts) == 2 and alias.asname:
                    aliases[alias.asname] = parts[1]
    return names, aliases


def _reads(mod, tree, modules, exports):
    """(module, name) of every package name that one module or demo
    reads outside that name's own definition."""
    names, aliases = _bindings(tree, modules, exports)
    reads = set()
    for stmt in tree.body:
        owner = (mod, getattr(stmt, "name", None))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = names.get(node.id, (mod, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                target = (aliases[node.value.id], node.attr)
            else:
                continue
            if target != owner:
                reads.add(target)
    return reads


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(init_tree):
    """name -> (module, name) for every name ``__init__.py`` imports."""
    exports = {}
    for node in ast.walk(init_tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                exports[alias.asname or alias.name] = (node.module, alias.name)
    return exports


def unread_exports(src, demos=None):
    """``module.name`` for every public name that no source reads outside
    its own definition: each name in a submodule's ``__all__`` and each
    name ``__init__.py`` exports.  A read by a script in ``demos`` counts
    for an exported name only."""
    trees = {p.stem: _parse(p) for p in src.glob("*.py")}
    exports = _exports(trees.pop("__init__"))
    reads = set()
    for mod, tree in trees.items():
        reads |= _reads(mod, tree, trees, exports)
    shown = set()
    for path in sorted(demos.glob("*.py")) if demos is not None else ():
        shown |= _reads(path.stem, _parse(path), trees, exports)
    exported = set(exports.values())
    public = exported | {(mod, name) for mod, tree in trees.items() for name in _all_names(tree)}
    return sorted(
        "%s.%s" % key
        for key in public
        if key not in reads and not (key in exported and key in shown)
    )


def test_every_public_name_is_read_by_the_source_or_a_demo():
    assert len(list(DEMOS.glob("*.py"))) >= 4
    assert unread_exports(SRC, DEMOS) == []


def test_unread_export_check_flags_test_only_names(tmp_path):
    src, demos = tmp_path / "src", tmp_path / "demos"
    src.mkdir()
    demos.mkdir()
    (src / "__init__.py").write_text(
        "from .a import exported, shown, hidden\n", encoding="utf-8"
    )
    (src / "a.py").write_text(
        "__all__ = ['exported', 'shown', 'hidden', 'used', 'recursive', "
        "'attr_only', 'by_module', 'demo_only']\n\n"
        "def exported():\n    return 0\n\n"
        "def shown():\n    return 0\n\n"
        "def hidden():\n    return 0\n\n"
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def attr_only():\n    return 2\n\n"
        "def by_module():\n    return 3\n\n"
        "def demo_only():\n    return 4\n\n"
        "def caller(args):\n    return used() + exported() + args.attr_only\n",
        encoding="utf-8",
    )
    (src / "b.py").write_text(
        "from . import a\n\ndef g():\n    return a.by_module()\n", encoding="utf-8"
    )
    (demos / "demo.py").write_text(
        "from kstruct import shown\nfrom kstruct.a import demo_only\n\n"
        "print(shown(), demo_only())\n",
        encoding="utf-8",
    )
    assert unread_exports(src) == [
        "a.attr_only", "a.demo_only", "a.hidden", "a.recursive", "a.shown"]
    assert unread_exports(src, demos) == [
        "a.attr_only", "a.demo_only", "a.hidden", "a.recursive"]


def readme_api_drift(src, readme):
    """(exported names the README's API section does not list, names it
    lists that are not exported).  The section runs from "## API" to the
    next heading; each of its "- `name`" lines lists one name."""
    text = readme.read_text(encoding="utf-8")
    section = text[text.index("\n## API\n"):]
    section = section[:section.index("\n## ", 1)]
    listed = re.findall(r"^- `(\w+)", section, re.MULTILINE)
    exported = set(_exports(_parse(src / "__init__.py")))
    assert len(set(listed)) == len(listed), "a name is listed twice"
    return sorted(exported - set(listed)), sorted(set(listed) - exported)


def test_readme_api_lists_every_export():
    assert readme_api_drift(SRC, README) == ([], [])


def test_readme_api_check_flags_a_missing_and_a_stale_name(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from ._version import __version__\nfrom .a import kept, dropped\n",
        encoding="utf-8",
    )
    readme = tmp_path / "README.md"
    readme.write_text(
        "# pkg\n\n## API\n\nSee [MIGRATION.md](MIGRATION.md) for `dropped`.\n\n"
        "- `kept(x)`: kept.\n- `gone`: deleted.\n- `__version__`: version.\n\n"
        "## Next\n\n- `dropped`: outside the section.\n",
        encoding="utf-8",
    )
    assert readme_api_drift(tmp_path, readme) == (["dropped"], ["gone"])
