"""Fixtures that the test files of several modules share."""

import pytest

from g2forms.catalog import build_entry, candidate_module, load_catalog
from g2forms.homogeneous import bare_complex
from g2forms.isotropy import invariant_3forms
from g2forms.liealg import build_algebra
from g2forms.section5 import NAMED_ALGEBRAS, _so4_module
from g2forms.stable_forms import primitive_int_vector


@pytest.fixture(scope="session")
def package_modules():
    """Every module whose invariant forms the package builds: the catalog
    rows at their shipped parameters, the so(4) block stabilizer of
    `section5.example_429_report` and the trivial-isotropy modules of the
    named algebras.  Each keeps its invariant k-forms once computed, so the
    tests that read them share the work."""
    return ([build_entry(e["case"], tuple(e["params"]))
             for e in load_catalog()] + [_so4_module()]
            + [bare_complex(build_algebra(name))
               for name in NAMED_ALGEBRAS.values()])


@pytest.fixture(scope="session")
def scanned_families():
    """(label, module, integer basis) of every shipped family with
    1 <= d < 35 and of the 4ii and 6ii candidate-generator families."""
    mods = []
    for e in load_catalog():
        mod = build_entry(e["case"], tuple(e["params"]))
        mods.append(mod)
        if e["case"] in ("4ii", "6ii"):
            mods += [candidate_module(mod, name, fmat)
                     for name, fmat, _ in mod.pending_generators]
    out = []
    for mod in mods:
        basis = invariant_3forms(mod)
        if 1 <= len(basis) < 35:
            out.append((mod.label, mod, [primitive_int_vector(
                f.coefficient_vector()) for f in basis]))
    assert {label for label, _, _ in out} >= {
        "4ii(0, 0)+B23-swap", "6ii+R5-fixing-rotation"}
    return out
