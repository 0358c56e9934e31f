"""The package holds only code that something in it reaches.

A static walk over the sources of `g2forms`: a top-level function or
method, public or private (dunders aside), is reached when some name,
attribute or identifier string in the package refers to it outside its own
definition (the CLI reaches the section5 reports by their names).  Code
that only tests read belongs in `tests/references.py`.  Every module-level
import is used in its module, and the imports between the package's
modules go one way, with no cycle.
"""

import ast
from collections import Counter
from pathlib import Path

import g2forms

SRC = Path(g2forms.__file__).parent

#: public functions nothing in the package reaches, each with its reason
ALLOWED = {
    "hodge_star": "float reference of the exact dual, traced by perfbench",
    "nearly_parallel_rays": "exact library entry point of the nearly "
                            "parallel rays, which no command calls, "
                            "traced by perfbench",
    "decompose2": "roadmap item 4: the 14+7 split of 2-forms",
    "decompose3": "roadmap item 4: the 1+7+27 split of 3-forms",
    "traceless_to_27": "roadmap item 4: the 27 of the 3-form split",
    "octonion_algebra": "roadmap item 4: the chi embedding",
    "is_automorphism": "roadmap item 4: the chi embedding",
    "chi_embedding": "roadmap item 4: the chi embedding",
    "from_integers": "roadmap item 4: unit quaternions for chi",
}


def _names(node):
    """Every name, attribute and identifier string under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            yield sub.value


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _unreached(private):
    """Names of the unreached top-level functions and methods, the private
    (`_name`, not dunder) ones or the public ones."""
    trees = _trees()
    refs = Counter(name for tree in trees.values() for name in _names(tree))
    unreached = set()
    for tree in trees.values():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if (isinstance(fn, ast.FunctionDef)
                        and fn.name.startswith("_") == private
                        and not fn.name.startswith("__")
                        and refs[fn.name] == Counter(_names(fn))[fn.name]):
                    unreached.add(fn.name)
    return unreached


def test_every_public_function_is_reached():
    unreached = _unreached(private=False)
    assert unreached - set(ALLOWED) == set()
    # an allowed name that became reached leaves the list
    assert set(ALLOWED) - unreached == set()


def test_every_private_function_is_reached():
    assert _unreached(private=True) == set()


def test_every_module_level_import_is_used():
    imports = (ast.Import, ast.ImportFrom)
    unused = set()
    for module, tree in _trees().items():
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in tree.body if isinstance(node, imports)
                 for alias in node.names}
        # a use is a bare name: np.linalg.det does not use an imported det
        used = {sub.id for node in tree.body if not isinstance(node, imports)
                for sub in ast.walk(node) if isinstance(sub, ast.Name)}
        unused |= {(module, name) for name in bound - used}
    # liealg binds these only for perfbench; the re-export test pins them
    assert unused == {("liealg", name) for name in (
        "ScanConfig", "invariant_3forms", "invariant_dims",
        "irreducible_dims", "invariant_form_types")}


def test_the_package_imports_form_no_cycle():
    graph = {}
    for module, tree in _trees().items():
        graph[module] = {node.module for node in tree.body
                         if isinstance(node, ast.ImportFrom)
                         and node.level == 1 and node.module}
    done = set()

    def visit(module, path):
        assert module not in path, f"import cycle {path + [module]}"
        if module not in done:
            for dep in graph.get(module, ()):
                visit(dep, path + [module])
            done.add(module)

    for module in graph:
        visit(module, [])
    assert graph["scan"] <= {"linalg", "multilinear", "stable_forms"}
    assert graph["liealg"] <= {"linalg", "isotropy"}
    assert graph["isotropy"].isdisjoint(
        {"liealg", "catalog", "homogeneous", "section5", "cli"})


def test_liealg_re_exports_the_objects_of_isotropy_and_scan():
    # perfbench resolves these names on liealg; each must be the one object,
    # so that a traced wrapper replaces it everywhere it is bound
    from g2forms import isotropy, liealg, scan

    assert liealg.ScanConfig is scan.ScanConfig
    for name in ("invariant_3forms", "invariant_dims", "irreducible_dims",
                 "invariant_form_types"):
        assert getattr(liealg, name) is getattr(isotropy, name)
