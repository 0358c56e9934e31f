"""The package holds only code that something in it reaches.

A static, transitive walk over the sources of `g2forms`.  The roots are
every function of `cli`, every name in `perfbench/workloads.py`, the
module-level statements (tables, decorators, defaults, class bodies), the
dunder methods and the `ALLOWED` names.  A top-level function or method is
reached when a reached body refers to it by name, attribute or identifier
string (the CLI reaches the section5 reports by their names); every one
must be reached.  Code that only tests read belongs in
`tests/references.py`.  Every module-level import is used in its module,
the imports between the package's modules go one way, with no cycle, and
none of them takes another module's private name.
"""

import ast
from pathlib import Path

import g2forms

SRC = Path(g2forms.__file__).parent
WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads.py"

#: functions no other root reaches, each with its reason
ALLOWED = {
    "hodge_star": "float reference of the exact dual, traced by perfbench",
    "nearly_parallel_rays": "exact library entry point of the nearly "
                            "parallel rays, which no command calls, "
                            "traced by perfbench",
    "leading_principal_minors": "traced by perfbench; no caller in the "
                                "package",
    "intersect_nullspaces": "traced by perfbench; no caller in the package",
    "rref": "traced by perfbench; no caller in the package since every "
            "coordinate read goes through `linalg.Basis`",
    "classify_coeffs": "traced by perfbench; no caller in the package "
                       "since a form's class is read off its record",
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


def _module_level(fn):
    """What a def evaluates where it is defined: decorators and defaults."""
    args = fn.args
    return [*fn.decorator_list, *args.defaults,
            *(d for d in args.kw_defaults if d is not None)]


def _functions_and_roots():
    """({name: [def nodes]} of the top-level functions and methods, and the
    root names other than `ALLOWED`)."""
    defs, roots = {}, set(_names(ast.parse(WORKLOADS.read_text())))
    for module, tree in _trees().items():
        for node in tree.body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                members = node.body
                roots.update(n for sub in (*node.decorator_list, *node.bases)
                             for n in _names(sub))
            for fn in members:
                if not isinstance(fn, ast.FunctionDef):
                    roots.update(_names(fn))
                    continue
                defs.setdefault(fn.name, []).append(fn)
                roots.update(n for sub in _module_level(fn)
                             for n in _names(sub))
                if module == "cli" or fn.name.startswith("__"):
                    roots.add(fn.name)
    return defs, roots


def _reached(defs, roots):
    """The function names a walk from the root names reaches."""
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [n for fn in defs[name] for n in _names(fn)
                 if n in defs and n not in reached]
    return reached


def _unreached(private):
    """Names of the unreached top-level functions and methods, the private
    (`_name`, not dunder) ones or the public ones."""
    defs, roots = _functions_and_roots()
    reached = _reached(defs, roots | set(ALLOWED))
    return {name for name in defs if name not in reached
            and name.startswith("_") == private}


def test_every_public_function_is_reached():
    assert _unreached(private=False) == set()
    # an allowed name is a function that no other root reaches; one that
    # became reached leaves the list
    defs, roots = _functions_and_roots()
    assert set(ALLOWED) <= set(defs)
    assert set(ALLOWED) & _reached(defs, roots) == set()


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


def test_no_module_imports_a_private_name_of_another():
    # a `_name` is read only in the module that defines it: no import of
    # the package, function-level ones included, takes a non-dunder private
    # name from another of its modules (tests and perfbench may)
    crossing = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("g2forms")):
                crossing |= {(module, node.module, alias.name)
                             for alias in node.names
                             if alias.name.startswith("_")
                             and not alias.name.startswith("__")}
    assert crossing == set()


def test_liealg_re_exports_the_objects_of_isotropy_and_scan():
    # perfbench resolves these names on liealg; each must be the one object,
    # so that a traced wrapper replaces it everywhere it is bound
    from g2forms import isotropy, liealg, scan

    assert liealg.ScanConfig is scan.ScanConfig
    for name in ("invariant_3forms", "invariant_dims", "irreducible_dims",
                 "invariant_form_types"):
        assert getattr(liealg, name) is getattr(isotropy, name)
