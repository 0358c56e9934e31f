"""Seeded 3-forms for the classify-stream workload, with an exact oracle.

Every form is g*PHI or g*PHITILDE for a rational 7x7 matrix g, so its answer
follows from the construction and not from the classifier under test:

- g*PHI is definite and g*PHITILDE indefinite when det g != 0; a singular g
  gives a degenerate form;
- B(g*t) = det(g) g^T B(t) g, hence det B(g*t) = det(g)^9 * 6^7 for both
  references (B(PHI) = 6 I, and B(PHITILDE) has signature (3, 4));
- the signature is that of the reference, with p and q swapped when
  det g < 0, and p + q < 7 when det g = 0.

This module imports nothing from g2forms: the pullback and the determinant
are computed here, so a defect in the program cannot hide in its own oracle.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

#: det B of both reference forms, 6^7
DET_B_REF = 6 ** 7

PHI_TERMS = {(1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
             (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1}
PHITILDE_TERMS = {(1, 2, 3): 1, (1, 4, 5): -1, (1, 6, 7): -1, (2, 4, 6): -1,
                  (2, 5, 7): 1, (3, 4, 7): 1, (3, 5, 6): 1}

#: (reference name, terms, class, signature of B at det g > 0)
REFERENCES = {
    "phi": (PHI_TERMS, "definite", (7, 0)),
    "phitilde": (PHITILDE_TERMS, "indefinite", (3, 4)),
}

#: the strata of a batch, (sparsity, height, reference, singular g), and how
#: many forms of each it holds.  Every batch has this composition, so the
#: seed changes the coefficients but hardly the work, and the median form
#: falls inside the dense low-height group rather than at a group's edge.
STRATA = {
    **{("sparse", height, ref, False): 1
       for height in ("low", "high") for ref in ("phi", "phitilde")},
    **{("dense", height, ref, False): 2
       for height in ("low", "high") for ref in ("phi", "phitilde")},
    ("dense", "low", "phi", True): 1,
    ("dense", "high", "phitilde", True): 1,
}

_IDX3 = list(combinations(range(7), 3))


@dataclass(frozen=True)
class Case:
    """One generated form with the answer its construction implies."""

    stratum: tuple
    terms: dict                 # {(i, j, k) 1-based increasing: Fraction}
    expected_class: str
    expected_detB: Fraction
    expected_signature: tuple   # None for degenerate: only p + q < 7 is known


def det(m):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def _det3(m, rows, cols):
    (a, b, c), (d, e, f) = rows, cols
    return (m[a][d] * (m[b][e] * m[c][f] - m[b][f] * m[c][e])
            - m[a][e] * (m[b][d] * m[c][f] - m[b][f] * m[c][d])
            + m[a][f] * (m[b][d] * m[c][e] - m[b][e] * m[c][d]))


def pullback3(g, terms):
    """g*t for a 3-form t on R^7: g*e^abc = sum_ijk det(g[abc, ijk]) e^ijk."""
    out = {}
    for cols in _IDX3:
        total = Fraction(0)
        for idx, c in terms.items():
            total += c * _det3(g, [i - 1 for i in idx], cols)
        if total != 0:
            out[tuple(i + 1 for i in cols)] = total
    return out


def _entry(rng, height, nonzero=False):
    while True:
        if height == "low":
            x = Fraction(rng.randint(-2, 2))
        else:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 97))
        if x != 0 or not nonzero:
            return x


def _matrix(rng, sparsity, height, singular):
    if sparsity == "sparse":
        # signed monomial matrix: g*t keeps the 7 terms of the reference
        perm = list(range(7))
        rng.shuffle(perm)
        g = [[Fraction(0)] * 7 for _ in range(7)]
        for r, c in enumerate(perm):
            g[r][c] = _entry(rng, height, nonzero=True)
        return g
    while True:
        g = [[_entry(rng, height) for _ in range(7)] for _ in range(7)]
        if singular:
            a, b = _entry(rng, height), _entry(rng, height)
            g[6] = [a * x + b * y for x, y in zip(g[0], g[1])]
            return g
        if det(g) != 0:
            return g


def case_for(g, ref, stratum=None):
    """The form g*ref with the answer its construction implies."""
    ref_terms, ref_class, ref_sig = REFERENCES[ref]
    dg = det(g)
    if dg == 0:
        cls, sig = "degenerate", None
    else:
        cls, sig = ref_class, ref_sig if dg > 0 else ref_sig[::-1]
    terms = pullback3(g, {k: Fraction(v) for k, v in ref_terms.items()})
    return Case(stratum=stratum, terms=terms, expected_class=cls,
                expected_detB=dg ** 9 * DET_B_REF, expected_signature=sig)


def make_case(rng, stratum):
    sparsity, height, ref, singular = stratum
    return case_for(_matrix(rng, sparsity, height, singular), ref, stratum)


def batch(seed, index):
    """Batch `index` of the stream for `seed`, of the STRATA composition.

    The order inside a batch is shuffled so that costly and cheap forms
    interleave.
    """
    rng = random.Random(f"classify-stream/{seed}/{index}")
    cases = [make_case(rng, s) for s, k in STRATA.items() for _ in range(k)]
    rng.shuffle(cases)
    return cases


def check_report(case, report):
    """Compare a classification report with the construction; [] when right."""
    problems = []
    if report.get("class") != case.expected_class:
        problems.append(f"class {report.get('class')!r}, "
                        f"expected {case.expected_class!r}")
    if Fraction(report["detB"]) != case.expected_detB:
        problems.append(f"detB {report.get('detB')}, "
                        f"expected {case.expected_detB}")
    sig = tuple(report.get("signature", ()))
    if case.expected_signature is None:
        if len(sig) != 2 or sum(sig) >= 7:
            problems.append(f"signature {sig} of a degenerate form")
    elif sig != case.expected_signature:
        problems.append(f"signature {sig}, "
                        f"expected {case.expected_signature}")
    return problems
