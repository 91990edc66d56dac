"""Every module under ``src/repro`` has a user outside ``tests/``.

The scan builds the static import graph of ``src/repro``,
``benchmarks/``, ``examples/`` and ``scripts/`` (plus ``tests/``, to say
who the only users are).  ``from repro.x import Name`` is resolved
through the package ``__init__`` to the module that defines ``Name``; a
package ``__init__``'s own module-level re-exports are not uses, so a
module that only its package exports and only tests import is caught.
"""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USER_DIRS = ("src/repro", "benchmarks", "examples", "scripts")
TEST_DIR = "tests"

# Entry points: run, not imported.
ENTRY_POINTS = {"repro.__main__"}

# Module -> why it may stay with no user outside tests/.
ALLOWED_UNUSED = {
    "repro.memproto.resolve":
        "ROADMAP item 2(ii) makes it the proxy backend or deletes it",
}


def _module_map():
    """``{dotted name: path}`` for every module and package in ``repro``."""
    modules, packages = {}, set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        modules[".".join(parts)] = path
    return modules, packages


MODULES, PACKAGES = _module_map()
NAMES = {path: name for name, path in MODULES.items()}


@functools.lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _absolute(node, importer):
    """The absolute module a ``from ... import`` names, seen from the
    module ``importer`` (None outside ``src/repro``)."""
    if not node.level:
        return node.module
    if importer is None:
        return None
    base = importer.split(".")
    if importer not in PACKAGES:
        base = base[:-1]
    base = base[:len(base) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def resolve(module, name):
    """The module that defines ``name`` as seen in ``module``: a
    submodule of that name, or the source of the package's re-export,
    followed through as many ``__init__`` files as it takes."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module in PACKAGES:
        for node in _tree(MODULES[module]).body:
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return resolve(_absolute(node, module), alias.name)
    return module


def _imports(path):
    """Modules of ``repro`` that the file at ``path`` imports."""
    importer = NAMES.get(path)
    tree = _tree(path)
    reexports = set(map(id, tree.body)) if importer in PACKAGES else set()
    used = set()
    for node in ast.walk(tree):
        if id(node) in reexports:
            continue
        if isinstance(node, ast.Import):
            used.update(a.name for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, importer)
            if source in MODULES:
                used.update(resolve(source, a.name) for a in node.names)
    return used - {importer}


def unused_modules():
    """``{module: its users (all under tests/, possibly none)}`` for every
    non-package module with no user outside ``tests/``."""
    users = {name: set() for name in MODULES}
    for top in USER_DIRS + (TEST_DIR,):
        for path in sorted((ROOT / top).rglob("*.py")):
            for name in _imports(path):
                users[name].add(str(path.relative_to(ROOT)))
    return {name: sorted(where) for name, where in users.items()
            if name not in PACKAGES and name not in ENTRY_POINTS
            and all(p.startswith(TEST_DIR + "/") for p in where)}


def test_every_module_has_a_user_outside_tests():
    unused = {name: where for name, where in unused_modules().items()
              if name not in ALLOWED_UNUSED}
    assert not unused, "modules no experiment, example, script or system " \
        "path imports:\n" + "\n".join(
            f"  {name}: " + (f"only {', '.join(where)}" if where else "no importer")
            for name, where in sorted(unused.items()))


def test_allowlist_entries_are_still_unused():
    # An entry whose module gained a user, or is gone, must be removed.
    assert set(ALLOWED_UNUSED) <= set(unused_modules())


def test_package_reexports_are_followed_not_counted():
    assert _imports(MODULES["repro.core"]) == set()
    assert resolve("repro", "Simulator") == "repro.sim.loop"
    assert resolve("repro.core", "ProxyCache") == "repro.core.proxies"
