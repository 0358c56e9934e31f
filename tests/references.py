"""Independent references the tests compare the package against.

`reference_action`: the package derives every index move of gl(R^n) on
k-forms once, in `multilinear._moves`; the tests of `algebra_action`,
`lambda_k_action_matrix` and `annihilator_of_form` compare against this
per-term loop instead, which sorts each replaced index tuple on its own.

`_hitchin_table`: the contraction table B_ij = sum sign t_I t_J t_K over
2,940 triples, which `reference_hitchin_matrix` and
`reference_family_hitchin_map` walk; the package builds B from
e_i ⌟ t and (e_j ⌟ t) ^ t instead (`stable_forms._hitchin_tables`).

`metric_from_4form`: the exact covector metric of a 4-form, gdual(p) as
the Hitchin matrix of star_euclidean(p).  `section5.example_429_report`
reads the metric of its 4-form family off one family Hitchin map instead;
the tests evaluate this at points against the bivector formula and the
report's display.

`sign_charpoly`: the characteristic polynomial a generator with spectrum
[-1] * a + [1] * b must have, to check `catalog._sign_spectrum` by a route
that takes no kernel.

The rest are the plain definitions the tests hold the package to, which no
command needs: the dense matrix `trace` and `commutator`, an echelonized
`span_basis`, the `bracket` and the Jacobi identity (`check_jacobi`) read
off a Lie algebra's structure constants, the `cartan_3form` <X, [Y, Z]> of
a module, and `coeff`, a k-form's value on an unsorted index tuple.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations

from g2forms.linalg import ZERO, mat, mat_mul, mat_sub, rref
from g2forms.multilinear import KForm, sort_index
from g2forms.scan import FamilyHitchinMap
from g2forms.stable_forms import (DIM, IDX3, hitchin_matrix, primitive_ray,
                                  star_euclidean)

IDX3_POS = {idx: p for p, idx in enumerate(IDX3)}


@cache
def _hitchin_table():
    """Contraction table for B_ij = sum sign * t_I t_J t_K over triples.

    For each i <= j, the terms with i in I, j in J and K the complement of
    (I\\i) u (J\\j), grouped by their first factor: a tuple of
    (posI, ((posJ, posK, sign), ...)), 15 groups per cell, so
    B_ij = sum t_I (sum sign t_J t_K).  Built once, reused for every
    evaluation (the classification scans hit this hard).
    """
    table = {}
    full = set(range(1, 8))
    for i in range(1, 8):
        for j in range(i, 8):
            entries = []
            for I in IDX3:
                if i not in I:
                    continue
                pi = I.index(i)
                I2 = I[:pi] + I[pi + 1:]
                si = 1 if pi % 2 == 0 else -1
                seti2 = set(I2)
                group = []
                for J in IDX3:
                    if j not in J:
                        continue
                    pj = J.index(j)
                    J2 = J[:pj] + J[pj + 1:]
                    if seti2 & set(J2):
                        continue
                    sj = 1 if pj % 2 == 0 else -1
                    rest = full - seti2 - set(J2)
                    if len(rest) != 3:
                        continue
                    K = tuple(sorted(rest))
                    s = sort_index(I2 + J2 + K)[1]
                    if s == 0:
                        continue
                    group.append((IDX3_POS[J], IDX3_POS[K], si * sj * s))
                entries.append((IDX3_POS[I], tuple(group)))
            table[(i, j)] = tuple(entries)
    return table


def reference_hitchin_matrix(coeffs):
    """B of a dense 35-vector by the contraction table: each cell sums t_I
    times its group's sum of sign t_J t_K."""
    b = [[0] * 7 for _ in range(7)]
    for (i, j), groups in _hitchin_table().items():
        acc = 0
        for pi, rest in groups:
            ci = coeffs[pi]
            if ci == 0:
                continue
            inner = 0
            for pj, pk, s in rest:
                cj = coeffs[pj]
                if cj == 0:
                    continue
                ck = coeffs[pk]
                if ck == 0:
                    continue
                inner += s * cj * ck
            acc += ci * inner
        b[i - 1][j - 1] = acc
        b[j - 1][i - 1] = acc
    return b


def reference_family_hitchin_map(bvecs):
    """The family Hitchin map of integer 35-vectors, by walking the
    contraction table over their nonzero entries."""
    table = _hitchin_table()
    support = [[(a, bv[p]) for a, bv in enumerate(bvecs) if bv[p]]
               for p in range(len(IDX3))]
    cubics = {}
    for e, groups in enumerate(table.values()):
        for pi, rest in groups:
            for a, ca in support[pi]:
                for pj, pk, s in rest:
                    for b, cb in support[pj]:
                        for c, cc in support[pk]:
                            terms = cubics.setdefault(
                                tuple(sorted((a, b, c))), {})
                            terms[e] = terms.get(e, 0) + s * ca * cb * cc
    monomials = []
    for (a, b, c), terms in sorted(cubics.items()):
        terms = tuple((e, v) for e, v in terms.items() if v)
        if terms:
            monomials.append((a, b, c, terms))
    return FamilyHitchinMap(monomials=tuple(monomials),
                            cells=tuple((i - 1, j - 1) for i, j in table))


def metric_from_4form(p: KForm) -> list:
    """Exact covector bilinear form of a 4-form on R^7: 7x7 Fractions.

    gdual(X*, Y*) = <P_X ^ P_Y, p> where P_X is the bivector with
    iota_{P_X} vol = X* ^ p; the value sits in (Lambda^7)^2, trivialized by
    (w^{1..7})^2.  Cubic in p; stability is det(gdual) != 0.

    gdual is the Hitchin matrix of the Euclidean dual t = star_euclidean(p):
    gdual(p) = hitchin_matrix(t).  With p = *t, X* ^ *t is the star of
    X ⌟ t up to a sign fixed by the degrees, so P_X is X ⌟ t read as a
    bivector and <P_X ^ P_Y, *t> = (X ⌟ t) ^ (Y ⌟ t) ^ t.  Both sides
    contract three copies of the coefficients with the permutation symbol
    and star_euclidean is a signed permutation of coordinates, so this is
    an identity of cubic polynomials in the 35 coefficients, not only of
    their values on stable forms (the tests compare the coefficients).  The
    matrix is built on the primitive integer ray of t, t = scale * x, and
    rescaled by scale^3.
    """
    if p.dim != DIM or p.degree != 4:
        raise ValueError("expected a 4-form on R^7")
    x, scale = primitive_ray(star_euclidean(p).coefficient_vector())
    s3 = scale ** 3
    return [[s3 * v for v in row] for row in hitchin_matrix(x)]


def reference_action(m, a):
    """(m . a)(v...) = -sum_i a(v1, ..., m v_i, ..., vk), term by term."""
    n = a.dim
    out = {}
    for idx, c in a.terms.items():
        for p, i in enumerate(idx):
            for j in range(1, n + 1):
                mij = m[i - 1][j - 1]
                if mij == 0:
                    continue
                key, sign = sort_index(idx[:p] + (j,) + idx[p + 1:])
                if sign == 0:
                    continue
                acc = out.get(key, Fraction(0)) - c * Fraction(mij) * sign
                if acc == 0:
                    out.pop(key, None)
                else:
                    out[key] = acc
    return KForm(n, a.degree, out)


def sign_charpoly(a, b):
    """Coefficients of (x + 1)^a (x - 1)^b, lowest degree first, as
    `linalg.charpoly` lists them."""
    poly = [1]
    for root in (-1,) * a + (1,) * b:
        poly = [x - root * y for x, y in zip([0] + poly, poly + [0])]
    return poly


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def commutator(a, b):
    """[a, b] = ab - ba of two dense matrices."""
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def span_basis(vectors):
    """Echelonized basis of the span of the given vectors."""
    if not vectors:
        return []
    r, pivots = rref(mat(vectors))
    return r[:len(pivots)]


def bracket(alg, x, y):
    """Coordinates of [x, y] for x, y given in the coordinates of `alg`:
    sum over i, j of x_i y_j c_ij, on the Fraction structure constants."""
    struct = alg.structure_constants()
    out = [ZERO] * alg.dim
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in ys:
            s = xi * yj
            for k, c in enumerate(struct[i][j]):
                if c:
                    out[k] += s * c
    return out


def check_jacobi(alg):
    """Exact Jacobi identity of the structure constants on all triples.

    Every matrix commutator satisfies Jacobi, so the check is made on the
    extracted constants, where it tests the coordinate extraction.
    """
    struct = alg.structure_constants()

    def ad(x, k):
        # [x, b_k] on the table that structure_constants() returns
        out = [0] * alg.dim
        for i, xi in enumerate(x):
            if xi:
                for l, c in enumerate(struct[i][k]):
                    out[l] += xi * c
        return out

    for i, j, k in combinations(range(alg.dim), 3):
        s = [a + b + c for a, b, c in zip(ad(struct[i][j], k),
                                          ad(struct[j][k], i),
                                          ad(struct[k][i], j))]
        if any(s):
            raise AssertionError(
                f"{alg.name}: Jacobi fails on triple {i},{j},{k}")
    return True


def cartan_3form(m):
    """The 3-form <X, [Y, Z]> on V, in the V-basis of the module m.

    On a bare complex this is the Cartan 3-form of the algebra; on a
    reductive complement it is the restriction of the ambient one, where only
    the V-part of [Y, Z] pairs with X because V is orthogonal to h.
    """
    n = m.dimV
    items = []
    for i, j, k in combinations(range(n), 3):
        c = m.brackets[(j, k)]
        v = sum((m.gram[i][l] * c[l] for l in range(n) if c[l]), Fraction(0))
        if v != 0:
            items.append(((i + 1, j + 1, k + 1), v))
    return KForm.make(n, 3, items)


def coeff(a, *idx):
    """a(e_i1, ..., e_ik) for an index tuple in any order."""
    key, sign = sort_index(idx)
    if sign == 0:
        return ZERO
    return sign * a.terms.get(key, ZERO)
