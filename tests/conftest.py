"""Fixtures that the test files of several modules share."""

import pytest

from g2forms.catalog import build_entry, load_catalog
from g2forms.homogeneous import bare_complex
from g2forms.liealg import build_algebra
from g2forms.section5 import NAMED_ALGEBRAS, _so4_module


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
