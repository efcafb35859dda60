"""Every definition in the package is used somewhere in the package.

A module-level function or class, or a method that is not a dunder, must
be named in ``src/`` outside its own definition: called, read as an
attribute, imported, or given as a string (an attribute looked up by
name).  Listing a name does not count: an ``__all__`` entry and a
re-export in a package's ``__init__.py`` only publish it.  Defining the
same name again does not count either: an interface method that only
instances implement and nothing calls is unused too.  A name that only
tests use is an export nothing needs, and is removed rather than kept.
The same scan without ``selftest.py`` flags only the names listed as
public by design.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rieszspec"


def _listing(n: ast.AST, package: bool) -> bool:
    """Whether n only publishes names: an ``__all__`` assignment, or an
    import in a package's ``__init__.py``."""
    if isinstance(n, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
    return package and isinstance(n, (ast.Import, ast.ImportFrom))


def _mentions(node: ast.AST, package: bool = False) -> list[str]:
    """Every name a subtree mentions; the names it defines and the names
    it only lists (see _listing) do not count."""
    out: list[str] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if _listing(n, package):
            continue
        stack.extend(ast.iter_child_nodes(n))
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.append(n.value)
    return out


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the non-dunder methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def unused_definitions(root: Path = SRC, skip: str = "") -> list[str]:
    """The definitions nothing in root names, every file but skip read."""
    trees = {
        rel: ast.parse(p.read_text(), str(p))
        for p in sorted(root.rglob("*.py"))
        if (rel := p.relative_to(root).as_posix()) != skip
    }
    counts: dict[str, int] = {}
    for path, tree in trees.items():
        for name in _mentions(tree, path.endswith("__init__.py")):
            counts[name] = counts.get(name, 0) + 1
    unused = []
    for path, tree in trees.items():
        for label, node in _definitions(tree):
            own = _mentions(node).count(node.name)
            if counts.get(node.name, 0) - own <= 0:
                unused.append(f"{path}:{label}")
    return unused


def test_every_definition_is_used_in_src():
    assert unused_definitions() == []


# Public by design, though in src/ only selftest calls them.  The first
# six are the paper's API, each with an acceptance criterion.  The
# sampling generators and the family's sqrt_of oracle draw the inputs of
# selftest and of the tests; the benchmark does not use them, as
# bench/inputs.py has its own generator and imports nothing of the package.
PUBLIC_FOR_SELFTEST = [
    "falgebra.py:product_positive",
    "lattice.py:LatticeElement.is_bottom",
    "lattice.py:LatticeElement.is_top",
    "lattice.py:d_of",
    "riesz.py:decompose",
    "sampling.py:CommutingFamily.sqrt_of",
    "sampling.py:rand_diagonal_family",
    "sampling.py:rand_pl",
    "sampling.py:rand_qn",
    "spectrum.py:stone_yosida_check",
]


def test_only_public_names_live_by_selftest_alone():
    assert sorted(unused_definitions(skip="selftest.py")) == PUBLIC_FOR_SELFTEST


def test_a_definition_named_only_by_itself_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import reexported\n")
    (tmp_path / "m.py").write_text(
        "__all__ = ['listed']\n"
        "def listed():\n    return helper()\n"
        "def reexported():\n    return 0\n"
        "def helper():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Base:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        return getattr(self, 'looked_up')\n"
        "    def hook(self):\n        return 0\n"
        "    def idle(self):\n        return self.idle\n"
        "class Impl(Base):\n"
        "    def hook(self):\n        return 1\n"
        "    def looked_up(self):\n        return 2\n"
    )
    assert unused_definitions(tmp_path) == [
        "m.py:listed", "m.py:reexported", "m.py:recursive",
        "m.py:Base.hook", "m.py:Base.idle", "m.py:Impl", "m.py:Impl.hook",
    ]


def _imported_modules(tree: ast.Module) -> set[str]:
    """The last dotted part of every module an AST imports, at any depth."""
    out: set[str] = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            out.update(a.name.rsplit(".", 1)[-1] for a in n.names)
        elif isinstance(n, ast.ImportFrom):
            if n.module:
                out.add(n.module.rsplit(".", 1)[-1])
            else:  # from . import x
                out.update(a.name for a in n.names)
    return out


def test_herm_imports_no_layer_above_it():
    # Herm materializes formulas itself; an import of falgebra, lattice or
    # spectrum would bring back the cycle through falgebra.abs_element
    tree = ast.parse((SRC / "instances" / "herm.py").read_text())
    assert not _imported_modules(tree) & {"falgebra", "lattice", "spectrum"}


def test_import_scan_sees_local_and_relative_imports():
    tree = ast.parse(
        "from ..exact import psd_check\n"
        "def f():\n    from ..falgebra import abs_element\n"
        "import rieszspec.lattice\n"
        "from .. import spectrum\n"
    )
    assert _imported_modules(tree) == {"exact", "falgebra", "lattice", "spectrum"}


def test_no_module_imports_a_private_name():
    # each module owns its formats and kernels: a RationalMatrix or a Poly
    # is read through its fields and built through its constructors, so
    # _sturm_ints, _sign_at and _prem stay in polyroots; the one private
    # name shared is exact's psd core
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.ImportFrom):
                found += [
                    f"{path.relative_to(SRC).as_posix()}:{n.module}.{a.name}"
                    for a in n.names
                    if a.name.startswith("_") and not a.name.startswith("__")
                ]
    assert found == ["falgebra.py:exact._psd_integer"]
