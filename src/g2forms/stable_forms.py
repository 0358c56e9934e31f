"""Orbit classification of 3-forms on R^7, and their exact dual 4-forms.

A 3-form t is stable when the symmetric bilinear form
    B(u, v) = (u ⌟ t) ^ (v ⌟ t) ^ t      (valued in Lambda^7, trivialized
                                           by w^{1..7})
is nondegenerate.  Its signature separates the two open GL(R^7)-orbits:
(7,0)/(0,7) for the definite orbit, (4,3)/(3,4) for the indefinite one.
All classification decisions here are exact; floating point only enters
the float metric and Hodge star, kept as references for the exact dual.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property
from enum import Enum
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby
from operator import itemgetter

from .linalg import (charpoly, frac, inertia, inverse, kernel, mat, mat_vec,
                     nullspace, transpose)
from .multilinear import (KForm, annihilator_of_form, basis_vector,
                          complement, interior, minors, wedge)

DIM = 7

#: the definite reference 3-form (identity-metric pattern)
PHI = KForm.make(7, 3, [
    ((1, 2, 3), 1), ((1, 4, 5), 1), ((1, 6, 7), 1), ((2, 4, 6), 1),
    ((2, 5, 7), -1), ((3, 4, 7), -1), ((3, 5, 6), -1),
])

#: the indefinite reference 3-form; PHI + PHITILDE = 2 w^123
PHITILDE = KForm.make(7, 3, [
    ((1, 2, 3), 1), ((1, 4, 5), -1), ((1, 6, 7), -1), ((2, 4, 6), -1),
    ((2, 5, 7), 1), ((3, 4, 7), 1), ((3, 5, 6), 1),
])

IDX3 = list(combinations(range(1, 8), 3))


class Orbit3Class(Enum):
    DEFINITE = "definite"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class HitchinData:
    """The exact record of a 3-form t = scale x, x primitive integer.

    B = r Bx with Bx a primitive integer matrix and r > 0 for t != 0
    (`hitchin_bilinear`), so det B = r^7 det Bx.  The Fraction matrix B and
    the exact dual are built on first read and kept; a reader of the class,
    det B or the signature never pays for them.
    """

    detB: Fraction
    signature: tuple
    Bx: list
    r: Fraction
    x: list
    scale: Fraction

    @property
    def orbit(self) -> Orbit3Class:
        return _orbit_of_signature(*self.signature)

    @cached_property
    def B(self) -> list:
        return [[self.r * v for v in row] for row in self.Bx]

    @cached_property
    def dual(self):
        """(Q, kappa^9) with star t = kappa Q, kappa > 0; None if degenerate.

        star t = vol C(t @ Lambda^3(g^-1)), vol > 0, C the signed complement
        of `star_euclidean` and g^-1 = 6^(2/9) |det B|^(1/9) sign(det B) B^-1
        (`metric_from_3form`), where B^-1 = adj(Bx) / (r det Bx).  By
        Jacobi's theorem each 3 x 3 minor of adj(Bx) is (det Bx)^2 times
        the complementary 4 x 4 minor of Bx, signed so that C(pullback(adj
        Bx, x)) = (det Bx)^2 P with P = `dual_minors`(Bx, x), the pullback
        along Bx of star_euclidean(x).  This gives Q = scale P and the
        rational kappa^9 = r / (6 |det Bx|^5), det Bx = det B / r^7.
        """
        if self.detB == 0:
            return None
        q = KForm.from_coefficient_vector(
            DIM, 4, [self.scale * v for v in dual_minors(self.Bx, self.x)])
        return q, self.r / (_METRIC_CONST * abs(self.detB / self.r ** 7) ** 5)


@dataclass(frozen=True)
class FamilyHitchinMap:
    """B of a linear family of 3-forms, expanded in the family coordinates.

    B(x) = sum over monomials x_a x_b x_c of an integer symmetric matrix
    M_abc.  `monomials` holds (a, b, c, terms) with a <= b <= c and terms
    the nonzero (cell, coefficient) pairs of M_abc over the upper-triangular
    `cells`.  Calling the map on an integer coefficient tuple x returns the
    exact integer B(x), the sorted monomials grouped once per map by a, then
    by b (`_prefixes`): a group whose x_a or x_a x_b is 0 is skipped whole.
    The exact checks below read the sparse terms directly.
    """

    monomials: tuple
    cells: tuple

    @cached_property
    def _prefixes(self):
        """The monomials as ((a, ((b, ((c, terms), ...)), ...)), ...)."""
        return tuple((a, tuple((b, tuple((c, t) for *_, c, t in tail))
                               for b, tail in groupby(group, itemgetter(1))))
                     for a, group in groupby(self.monomials, itemgetter(0)))

    def __call__(self, x):
        flat = [0] * len(self.cells)
        for a, by_b in self._prefixes:
            if x[a]:
                for b, by_c in by_b:
                    if xab := x[a] * x[b]:
                        for c, terms in by_c:
                            if v := xab * x[c]:
                                for e, coef in terms:
                                    flat[e] += coef * v
        m = [[0] * DIM for _ in range(DIM)]
        for (i, j), v in zip(self.cells, flat):
            m[i][j] = m[j][i] = v
        return m

    def _rows(self, terms):
        """The nonzero rows of one M_abc, by row index."""
        rows = {}
        for e, coef in terms:
            i, j = self.cells[e]
            rows.setdefault(i, [0] * DIM)[j] = coef
            rows.setdefault(j, [0] * DIM)[i] = coef
        return rows

    def kills(self, v):
        """Is M_abc v = 0 for every monomial?  Exact integer products."""
        return not any(sum(x * y for x, y in zip(row, v))
                       for *_, terms in self.monomials
                       for row in self._rows(terms).values())

    def isotropic(self, vecs):
        """Is w^T M_abc w' = 0 for every monomial and all w, w' in vecs?"""
        pairs = [(w, u) for k, w in enumerate(vecs) for u in vecs[k:]]
        for *_, terms in self.monomials:
            rows = self._rows(terms)
            if any(sum(w[i] * sum(x * y for x, y in zip(row, u))
                       for i, row in rows.items()) for w, u in pairs):
                return False
        return True

    def common_kernel(self):
        """Primitive integer basis of the joint kernel of the M_abc."""
        rows = {tuple(row) for *_, terms in self.monomials
                for row in self._rows(terms).values()}
        vecs = kernel([dict(enumerate(r)) for r in rows], DIM)
        return [primitive_int_vector(v) for v in vecs]

    def isotropic_coordinates(self):
        """A largest set of coordinates whose span is isotropic for every
        M_abc, as a sorted tuple (the first in lexicographic order), or ().

        A support test: no monomial may have a term on a cell (i, j) with i
        and j both in the set.
        """
        support = {self.cells[e] for *_, terms in self.monomials
                   for e, _ in terms}
        for k in range(DIM, 0, -1):
            for s in combinations(range(DIM), k):
                if not support.intersection(
                        combinations_with_replacement(s, 2)):
                    return s
        return ()


@cache
def _hitchin_cubic() -> FamilyHitchinMap:
    """B as one integer cubic in the 35 coefficients x_p of t, built once.

    The three steps of B_ij = <e_i ⌟ t, (e_j ⌟ t) ^ t> run once, on
    t = sum_p x_p e^(I_p), I_p the p-th 3-subset of 1..7, with subsets as
    bit masks and e^L ^ e^H = sign(L, H) e^(L+H), -1 per pair l in L,
    h in H with h < l:
      1. A_i = e_i ⌟ t: A_i[P] = sign({i}, P) x_p where I_p = P + {i};
      2. W_j = A_j ^ t: W_j[P + I_k] gets sign(P, I_k) A_j[P] x_k;
      3. B_ij = sum_P sign(P, comp P) A_i[P] W_j[comp P], for i <= j.
    Merged (`_from_terms`), it is the `FamilyHitchinMap` of the 35 unit
    vectors: 735 monomials with one cell each.
    """
    triples = [sum(1 << i for i in I) for I in combinations(range(DIM), 3)]
    full = (1 << DIM) - 1

    def sign(lo, hi):
        n = 0
        while lo:
            n += (hi & (lo & -lo) - 1).bit_count()
            lo &= lo - 1
        return -1 if n & 1 else 1

    iota = [[(m ^ 1 << i, p, sign(1 << i, m ^ 1 << i))
             for p, m in enumerate(triples) if m >> i & 1] for i in range(DIM)]
    pairs = [1 << i | 1 << j for i, j in combinations(range(DIM), 2)]
    wedges = {P: [(P | K, k, sign(P, K)) for k, K in enumerate(triples)
                  if not P & K] for P in pairs}
    w = []
    for a_j in iota:
        w.append({})
        for P, p, s in a_j:
            for F, k, sk in wedges[P]:
                w[-1].setdefault(F, []).append(
                    (p, k, s * sk) if p <= k else (k, p, s * sk))
    flat, cells = {}, []
    for i in range(DIM):
        row = [(full ^ P, p, s * sign(P, full ^ P)) for P, p, s in iota[i]]
        for j in range(i, DIM):
            e = len(cells)
            cells.append((i, j))
            for F, a, s in row:
                for b, c, v in w[j][F]:
                    key = ((a << 12 | b << 6 | c) if a <= b else
                           (b << 12 | a << 6 | c) if a <= c else
                           (b << 12 | c << 6 | a)) << 5 | e
                    flat[key] = flat.get(key, 0) + s * v
    return _from_terms(flat, tuple(cells))


def _from_terms(flat, cells) -> FamilyHitchinMap:
    """The map of {(a << 12 | b << 6 | c) << 5 | cell: v}, a <= b <= c."""
    monomials = {}
    for key in sorted(flat):
        if flat[key]:
            monomials.setdefault(key >> 5, []).append((key & 31, flat[key]))
    return FamilyHitchinMap(monomials=tuple(
        (m >> 12, m >> 6 & 63, m & 63, tuple(terms))
        for m, terms in monomials.items()), cells=cells)


def hitchin_matrix(coeffs):
    """Symmetric 7x7 matrix B of a dense 35-vector of 3-form coefficients:
    `_hitchin_cubic` at the vector.  Another length is refused."""
    if len(coeffs) != len(IDX3):
        raise ValueError(f"expected 35 coefficients, got {len(coeffs)}")
    return _hitchin_cubic()(coeffs)


def family_hitchin_map(bvecs) -> FamilyHitchinMap:
    """B of the family t(x) = sum_a x_a bvecs[a] as 28 integer cubics in x.

    The linear forms t_p = sum_a bvecs[a][p] x_a of the integer 35-vectors
    `bvecs`, over nonzero entries only, are substituted into `_hitchin_cubic`:
    t_p t_q once per prefix (p, q) of its sorted monomials, then times each
    t_r.  The cells and the order are the cubic's."""
    support = [[(a, bv[p]) for a, bv in enumerate(bvecs) if bv[p]]
               for p in range(len(IDX3))]
    flat, prefix = {}, None
    for p, q, r, terms in _hitchin_cubic().monomials:
        if not (lin := support[r]):
            continue
        if (p, q) != prefix:
            prefix, quad = (p, q), {}
            for a, ca in support[p]:
                for b, cb in support[q]:
                    key = (a, b) if a <= b else (b, a)
                    quad[key] = quad.get(key, 0) + ca * cb
        for e, coef in terms:
            for (a, b), v in quad.items():
                cv = coef * v
                for c, cc in lin:
                    key = ((c << 12 | a << 6 | b) if c <= a else
                           (a << 12 | c << 6 | b) if c <= b else
                           (a << 12 | b << 6 | c)) << 5 | e
                    flat[key] = flat.get(key, 0) + cv * cc
    return _from_terms(flat, _hitchin_cubic().cells)


def primitive_ray(vec):
    """(x, scale) with vec = scale * x and x the primitive integer vector.

    Clears denominators and divides out the content.  The scale is positive
    (0 for the zero vector), so it changes neither a classification nor the
    ray a scan sample lies on.
    """
    den = math.lcm(*(c.denominator for c in vec))
    ints = [c.numerator * (den // c.denominator) for c in vec]
    g = math.gcd(*ints)
    return ([x // g for x in ints] if g > 1 else ints), Fraction(g, den)


def primitive_int_vector(vec):
    """The primitive integer vector on the ray of a rational vector."""
    return primitive_ray(vec)[0]


def hitchin_bilinear(t: KForm) -> HitchinData:
    """The exact record (`HitchinData`) of a degree-3 form on R^7.

    B is built once, on the integer vector x of t's ray, and divided once
    by the gcd c of its entries into Bx (c = 0, B = 0, leaves it as it is).
    B is GL(7)-equivariant, B(g t) = det(g) g^T B(t) g, so on a form in the
    orbit of an integer reference c carries det g and most of the digits.
    One symmetric fraction-free elimination of Bx (`inertia`) gives its
    determinant and, by Jacobi's rule, the signature, which the positive
    factor r = scale^3 c keeps.  Only det B is rescaled to t here.
    """
    if t.dim != DIM or t.degree != 3:
        raise ValueError("expected a 3-form on R^7")
    x, scale = primitive_ray(t.coefficient_vector())
    bx = hitchin_matrix(x)
    r = scale ** 3
    c = math.gcd(*(v for row in bx for v in row))
    if c > 1:
        bx = [[v // c for v in row] for row in bx]
        r *= c
    p, q, detp = inertia(bx)
    return HitchinData(detB=r ** 7 * detp, signature=(p, q), Bx=bx, r=r,
                       x=x, scale=scale)


def _orbit_of_signature(p, q) -> Orbit3Class:
    """The orbit class of a 3-form whose B has signature (p, q).

    p + q < 7 is degenerate; a nondegenerate B is definite when p or q is
    0, and otherwise lies in the indefinite orbit, there being exactly two
    open orbits.
    """
    if p + q < DIM:
        return Orbit3Class.DEGENERATE
    return Orbit3Class.DEFINITE if 0 in (p, q) else Orbit3Class.INDEFINITE


def classify_hitchin(b) -> Orbit3Class:
    """Exact three-way classification from an integer Hitchin matrix B.

    One symmetric elimination (`inertia`) gives B's signature, read by
    `_orbit_of_signature`.  Only signs are read, so any positive multiple
    of a form (B scales by its cube) gets the same class.
    """
    p, q, _ = inertia(b)
    return _orbit_of_signature(p, q)


def classify_coeffs(coeffs) -> Orbit3Class:
    """Exact three-way classification from a dense coefficient vector.

    Scaling to integers is harmless (B is homogeneous of degree 3).
    """
    return classify_hitchin(hitchin_matrix(primitive_int_vector(coeffs)))


_METRIC_CONST = 6  # pinned by the phi -> identity-metric oracle


def metric_from_3form(t: KForm):
    """Metric (numpy array) and volume of a stable 3-form; ninth roots appear.

    g = sign(det B) B / (6^(2/9) |det B|^(1/9)), so the definite reference
    yields the identity metric.  B has signature (7,0), (0,7), (4,3) or
    (3,4), and det B < 0 exactly for (0,7) and (4,3): the sign makes the
    definite metric positive and gives the indefinite one signature (3, 4).
    B and det B are exact rescalings of the integer matrix of t's ray, so
    each float is the correctly rounded value of the exact rational.  Kept
    as the float reference for the exact dual (`HitchinData.dual`).
    """
    import numpy as np

    data = hitchin_bilinear(t)
    b, detb = data.B, data.detB
    if detb == 0:
        raise ValueError("degenerate 3-form has no metric")
    scale = float(_METRIC_CONST) ** (2.0 / 9.0) * float(abs(detb)) ** (1.0 / 9.0)
    g = np.array(b, dtype=float) / scale
    if detb < 0:
        g = -g
    return g, math.sqrt(abs(np.linalg.det(g)))


def hodge_star(a: KForm, t: KForm):
    """Hodge star of a w.r.t. the metric and orientation of the stable form t.

    Returns a float numpy vector over the sorted (7-k)-subset basis:
    vol * x @ Lambda^k(g^-1), the compound matrix of k-minors, followed by
    the complement map e^J -> eps(J, comp J) e^{comp J}.  Complementing
    reverses the lexicographic order of the subsets.  Assertions that depend
    on this should use a relative tolerance around 1e-9.
    """
    import numpy as np

    if not isinstance(a, KForm):
        raise TypeError("hodge_star expects an exact KForm input")
    g, volume = metric_from_3form(t)
    k = a.degree
    ksets = list(combinations(range(1, DIM + 1), k))
    idx = np.array(ksets, dtype=int).reshape(len(ksets), k) - 1
    ginv = np.linalg.inv(g)
    compound = np.linalg.det(ginv[idx[:, None, :, None], idx[None, :, None, :]])
    signs = np.array([complement(J, DIM)[1] for J in ksets], dtype=float)
    x = np.array(a.coefficient_vector(), dtype=float)
    return (volume * (x @ compound) * signs)[::-1]


def star_euclidean(a: KForm) -> KForm:
    """Exact Hodge star for the identity metric and w^{1..7} orientation.

    This is the star of the definite reference form; it is used wherever an
    exact dual is required (module decompositions, reference 4-forms).
    """
    # complements of distinct index sets are distinct and sorted
    return KForm(a.dim, a.dim - a.degree,
                 {J: c * s for I, c in a.terms.items()
                  for J, s in [complement(I, a.dim)]})


#: exact dual 4-form of the definite reference (identity metric)
PSI4 = star_euclidean(PHI)


#: star_euclidean sends e^J to sign e^(comp J): (0-based comp J, sign) per J
_STAR_TARGETS = [(tuple(i - 1 for i in c), s)
                 for c, s in (complement(J, DIM) for J in IDX3)]


def dual_minors(b, x):
    """P = b^*(star_euclidean x), the integer 35-vector over the 4-subsets
    of the integer 3-form x's Euclidean star pulled back along the integer
    matrix b: the `minors` of b of size 4 weighed by star x."""
    return minors(b, {c: s * xi for (c, s), xi in zip(_STAR_TARGETS, x)
                      if xi}, 4)


def _descartes_signature(coeffs):
    """(p, q) of a symmetric matrix from its characteristic polynomial.

    Every root is real, so by Descartes' rule of signs p is the number of
    sign changes in the coefficients and q the number in those of c(-x).
    """
    def changes(seq):
        signs = [v > 0 for v in seq if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(coeffs), changes(-v if k % 2 else v
                                    for k, v in enumerate(coeffs))


def classification_report(t: KForm) -> dict:
    """CLI-facing classification record with exact rational det B.

    One Hitchin build and one elimination (`hitchin_bilinear`): the class is
    the record's `orbit`, read off the signature that comes with det B.
    That signature is confirmed by Descartes' rule on the characteristic
    polynomial of the same primitive matrix Bx, an independent exact count
    that the positive factor B / Bx cannot change; a disagreement raises.
    """
    data = hitchin_bilinear(t)
    if _descartes_signature(charpoly(data.Bx)) != data.signature:
        raise ArithmeticError("Jacobi and Descartes signatures of B differ")
    return {
        "class": data.orbit.value,
        "detB": str(data.detB),
        "signature": list(data.signature),
    }


# ---------------------------------------------------------------------------
# module decompositions under the annihilator algebra of PHI
# ---------------------------------------------------------------------------

@cache
def annihilator_g2():
    """Basis of {A in gl(R^7) : algebra_action(A, PHI) = 0} (14 matrices).

    Exact null-space computation; the result is the compact stabilizer
    algebra of the definite reference form, contained in so(7).
    """
    return annihilator_of_form(PHI)


def _two_form_of_matrix(a):
    """2-form alpha(u, v) = <A u, v> for the identity metric."""
    items = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            c = a[j - 1][i - 1]  # alpha(e_i, e_j) = (A e_i)_j
            if c != 0:
                items.append(((i, j), c))
    return KForm.make(7, 2, items)


@cache
def _decomp2_setup():
    basis14 = [_two_form_of_matrix(a) for a in annihilator_g2()]
    basis7 = [interior(basis_vector(7, i), PHI) for i in range(1, 8)]
    cols = [f.coefficient_vector() for f in basis14 + basis7]
    minv = inverse(transpose(mat(cols)))
    return basis14, basis7, minv


def decompose2(a: KForm):
    """Split a 2-form into its 14- and 7-dimensional isotypic parts.

    part14 is the image of the annihilator algebra under the metric
    identification; part7 is spanned by the e_i ⌟ PHI.  Exact.
    """
    if a.dim != DIM or a.degree != 2:
        raise ValueError("expected a 2-form on R^7")
    basis14, basis7, minv = _decomp2_setup()
    x = mat_vec(minv, a.coefficient_vector())
    part14 = KForm.zero(7, 2)
    for c, f in zip(x[:14], basis14):
        part14 = part14 + c * f
    part7 = a - part14
    return part14, part7


@cache
def _decomp3_setup():
    basis1 = [PHI]
    basis7 = [star_euclidean(wedge(PHI, KForm.basis(7, i)))
              for i in range(1, 8)]
    span8 = [f.coefficient_vector() for f in basis1 + basis7]
    basis27_vecs = nullspace(span8)  # orthocomplement via coefficient dot
    basis27 = [KForm.from_coefficient_vector(7, 3, v) for v in basis27_vecs]
    cols = [f.coefficient_vector() for f in basis1 + basis7 + basis27]
    minv = inverse(transpose(mat(cols)))
    return basis1, basis7, basis27, minv


def decompose3(a: KForm):
    """Split a 3-form into the 1-, 7-, and 27-dimensional isotypic parts."""
    if a.dim != DIM or a.degree != 3:
        raise ValueError("expected a 3-form on R^7")
    basis1, basis7, basis27, minv = _decomp3_setup()
    x = mat_vec(minv, a.coefficient_vector())
    part1 = x[0] * PHI
    part7 = KForm.zero(7, 3)
    for c, f in zip(x[1:8], basis7):
        part7 = part7 + c * f
    part27 = a - part1 - part7
    return part1, part7, part27


def traceless_to_27(s):
    """Map a traceless symmetric matrix into the 27-part of Lambda^3.

    The symmetrized version of S |-> sum_ij S_ij e^i ^ star(e^j ^ star phi);
    injective on traceless symmetric input, with image the 27-dimensional
    isotypic component.
    """
    acc = KForm.zero(7, 3)
    for i in range(1, 8):
        ei = KForm.basis(7, i)
        for j in range(1, 8):
            c = frac(s[i - 1][j - 1])
            if c == 0:
                continue
            acc = acc + c * wedge(ei, star_euclidean(
                wedge(KForm.basis(7, j), PSI4)))
    return acc
