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
from itertools import combinations

from .linalg import (adjugate, charpoly, cleared, frac, inertia, inverse,
                     mat, mat_vec, nullspace, transpose)
from .multilinear import (KForm, _moves, basis_vector, complement, interior,
                          sort_index, wedge)

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
    """Exact bilinear-form data of a 3-form: B, det B, and the signature.

    Everything is read off one integer matrix: for t = scale * x with x the
    primitive integer vector on the ray of t, Bx = hitchin_matrix(x) and
    det B = scale^21 det Bx, and det Bx and the signature come from one
    symmetric elimination of Bx (`inertia`).  The Fraction matrix
    B = scale^3 Bx is built on first read and kept; a reader of the class,
    det B or the signature never pays for it.
    """

    detB: Fraction
    signature: tuple
    Bx: list
    scale: Fraction

    @cached_property
    def B(self) -> list:
        s3 = self.scale ** 3
        return [[s3 * v for v in row] for row in self.Bx]


@cache
def _hitchin_tables():
    """The three integer tables of B = (e_i ⌟ t) ^ (e_j ⌟ t) ^ t, built once.

    Positions index the lexicographic lists of 2-, 3- and 5-subsets of
    1..7; i is 0-based.
      interior: per triple I, the three (i, P, sign) with
                e_i ⌟ e^I = sign e^P, P = I minus i, sign = (-1)^pos for
                the 0-based position pos of i in I;
      wedge:    per pair P, its ten disjoint triples K as (K, F, sign) with
                e^P ^ e^K = sign e^F;
      pairing:  per pair P, complement(P, 7): (F, sign) with F its
                complement and e^P ^ e^F = sign e^{1..7}.
    `hitchin_matrix` and `scan.family_hitchin_map` read them.
    """
    pos2 = {P: n for n, P in enumerate(combinations(range(1, 8), 2))}
    pos5 = {F: n for n, F in enumerate(combinations(range(1, 8), 5))}
    interior = tuple(
        tuple((i - 1, pos2[I[:k] + I[k + 1:]], -1 if k % 2 else 1)
              for k, i in enumerate(I))
        for I in IDX3)
    wedge = tuple(
        tuple((p, pos5[F], s) for p, K in enumerate(IDX3)
              for F, s in [sort_index(P + K)] if s)
        for P in pos2)
    pairing = tuple((pos5[F], s)
                    for P in pos2 for F, s in [complement(P, DIM)])
    return interior, wedge, pairing


def _coeffs3(t: KForm):
    if t.dim != DIM or t.degree != 3:
        raise ValueError("expected a 3-form on R^7")
    return t.coefficient_vector()


def hitchin_matrix(coeffs):
    """Symmetric 7x7 matrix B for a dense 35-vector of 3-form coefficients.

    B_ij = <A_i, W_j>, read off three steps over nonzero entries only
    (`_hitchin_tables`): the 2-forms A_i = e_i ⌟ t, the 5-forms
    W_j = A_j ^ t, and B_ij = sum over pairs P of sign(P) A_i[P] W_j[comp P]
    for i <= j, sign(P) the sign of e^P ^ e^(comp P) against e^{1..7}.
    """
    interior, wedge, pairing = _hitchin_tables()
    iota = [[] for _ in range(DIM)]
    for p, c in enumerate(coeffs):
        if c:
            for i, q, s in interior[p]:
                iota[i].append((q, c if s > 0 else -c))
    w = []
    for a in iota:
        wj = [0] * len(pairing)
        for q, aq in a:
            naq = -aq
            for k, f, s in wedge[q]:
                ck = coeffs[k]
                if ck:
                    wj[f] += (aq if s > 0 else naq) * ck
        w.append(wj)
    b = [[0] * DIM for _ in range(DIM)]
    for i, a in enumerate(iota):
        row = []
        for q, aq in a:
            f, s = pairing[q]
            row.append((f, aq if s > 0 else -aq))
        for j in range(i, DIM):
            wj = w[j]
            acc = 0
            for f, c in row:
                acc += c * wj[f]
            b[i][j] = b[j][i] = acc
    return b


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


def hitchin_ray(t: KForm):
    """(Bx, scale, x): the integer Hitchin matrix of t's primitive ray.

    t = scale * x with x primitive integer and Bx = hitchin_matrix(x); B is
    homogeneous of degree 3, so B(t) = scale^3 Bx exactly.
    """
    x, scale = primitive_ray(_coeffs3(t))
    return hitchin_matrix(x), scale, x


def hitchin_bilinear(t: KForm) -> HitchinData:
    """Exact Hitchin data of a degree-3 form on R^7.

    B is built once, on the integer vector of t's ray; one symmetric
    fraction-free elimination of that integer matrix (`inertia`) gives
    det Bx and, by Jacobi's rule, the signature (a positive scale keeps
    it).  Only det B is rescaled to t here; B is rescaled when it is read.
    """
    bx, scale, _ = hitchin_ray(t)
    p, q, detbx = inertia(bx)
    return HitchinData(detB=scale ** 21 * detbx, signature=(p, q), Bx=bx,
                       scale=scale)


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


def classify3(t: KForm) -> Orbit3Class:
    """Orbit class of a 3-form on R^7 (exact)."""
    return classify_coeffs(_coeffs3(t))


_METRIC_CONST = 6  # pinned by the phi -> identity-metric oracle


def metric_from_3form(t: KForm):
    """Metric (numpy array) and volume of a stable 3-form; ninth roots appear.

    g = sign(det B) B / (6^(2/9) |det B|^(1/9)), so the definite reference
    yields the identity metric.  B has signature (7,0), (0,7), (4,3) or
    (3,4), and det B < 0 exactly for (0,7) and (4,3): the sign makes the
    definite metric positive and gives the indefinite one signature (3, 4).
    B and det B are exact rescalings of the integer matrix of t's ray, so
    each float is the correctly rounded value of the exact rational.  Kept
    as the float reference for `_star_on_dual_ray`.
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


@cache
def _minor_expansion():
    """Per 3-subset J = (j, k, l) of 0..6, in order: its sign in
    `star_euclidean`, and (j, k, l) with the positions of the 2-subsets
    (k, l), (j, l), (j, k), along which a 3 x 3 minor with columns J
    expands by its first row."""
    pair = {jk: n for n, jk in enumerate(combinations(range(DIM), 2))}
    return tuple(
        (complement((j + 1, k + 1, l + 1), DIM)[1],
         j, k, l, pair[k, l], pair[j, l], pair[j, k])
        for j, k, l in combinations(range(DIM), 3))


def _dual_coefficients(adj, x):
    """star_euclidean(pullback(adj, x)) as an integer 35-vector.

    adj is an integer 7 x 7 matrix and x the integer coefficients of a
    3-form.  The pullback has coefficient sum_I x_I det adj[I, J] on e^J,
    and the star puts it, times the sign of (J, comp J), on e^(comp J),
    which sits at position 34 - pos J: complementing reverses the
    lexicographic order.  Each minor is expanded along row I_1 against the
    2 x 2 minors of rows I_2, I_3, taken once per I in the support of x.
    """
    expansion = _minor_expansion()
    acc = [0] * len(expansion)
    pairs = list(combinations(range(DIM), 2))
    for (a, b, c), xi in zip(combinations(range(DIM), 3), x):
        if not xi:
            continue
        ra, rb, rc = adj[a], adj[b], adj[c]
        m2 = [rb[j] * rc[k] - rb[k] * rc[j] for j, k in pairs]
        for n, (_, j, k, l, kl, jl, jk) in enumerate(expansion):
            acc[n] += xi * (ra[j] * m2[kl] - ra[k] * m2[jl] + ra[l] * m2[jk])
    return [e[0] * v for e, v in zip(expansion, acc)][::-1]


def _star_on_dual_ray(t: KForm, ray=None):
    """(Q, kappa^9) with star t = kappa Q, kappa > 0; None if degenerate.

    star t = vol C(t @ Lambda^3(g^-1)), vol > 0, C the signed complement of
    `star_euclidean` and g^-1 = 6^(2/9) |det B|^(1/9) sign(det B) B^-1
    (`metric_from_3form`).  With t = scale x (`hitchin_ray`) and
    adj(Bx) = c M, M primitive (one integer `adjugate`), this gives
    Q = star_euclidean(pullback(M, t)) = scale * `_dual_coefficients`(M, x)
    and the rational kappa^9 = scale^3 c^27 / (6 |det Bx|^23).  `ray`: t's
    `hitchin_ray`.
    """
    bx, scale, x = ray or hitchin_ray(t)
    detbx, adj = adjugate(bx)
    if detbx == 0:
        return None
    adj, c = primitive_ray([v for row in adj for v in row])
    q = _dual_coefficients([adj[i:i + DIM]
                            for i in range(0, DIM * DIM, DIM)], x)
    q = KForm.from_coefficient_vector(DIM, 4, [scale * v for v in q])
    return q, scale ** 3 * c ** 27 / (_METRIC_CONST * abs(detbx) ** 23)


def dual_ray(t: KForm):
    """The exact Q on the ray of star t (`_star_on_dual_ray`), or None."""
    star = _star_on_dual_ray(t)
    return None if star is None else star[0]


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
    read off the signature that comes with det B, by `_orbit_of_signature`.
    That signature is confirmed by Descartes' rule on the characteristic
    polynomial of Bx, an independent exact count; a disagreement raises.
    """
    data = hitchin_bilinear(t)
    if _descartes_signature(charpoly(data.Bx)) != data.signature:
        raise ArithmeticError("Jacobi and Descartes signatures of B differ")
    return {
        "class": _orbit_of_signature(*data.signature).value,
        "detB": str(data.detB),
        "signature": list(data.signature),
    }


# ---------------------------------------------------------------------------
# module decompositions under the annihilator algebra of PHI
# ---------------------------------------------------------------------------

def annihilator_of_form(*forms: KForm):
    """Basis of {A in gl(R^n) : algebra_action(A, t) = 0 for all t}, exact.

    The condition is linear in the n^2 entries of A.  Each form is cleared
    to integers, and each of its terms c e^I adds -c sign to the row of e^J
    in the column n i + j of A[i][j], for every move (i, j, J, sign) of I
    in `multilinear._moves`, the table `algebra_action` reads.  One
    `nullspace` solves the stacked rows of all the forms.
    """
    n = forms[0].dim
    rows = []
    for t in forms:
        (coeffs,), _ = cleared([list(t.terms.values())])
        moves = _moves(n, t.degree)
        out = {}
        for I, c in zip(t.terms, coeffs):
            for i, j, J, sign in moves[I]:
                row = out.setdefault(J, [0] * (n * n))
                row[n * i + j] -= c * sign
        rows.extend(out.values())
    basis = nullspace(rows or [[0] * (n * n)])
    return [[[v[n * r + c] for c in range(n)] for r in range(n)]
            for v in basis]


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
