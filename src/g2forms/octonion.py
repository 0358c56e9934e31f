"""Compact and split octonion algebras over the rationals.

Both algebras come from Cayley-Dickson doubling of the quaternions,
    (a, b)(c, d) = (a c + g * conj(d) b,  d a + b conj(c)),
with doubling parameter g = -1 (compact) or g = +1 (split).  Basis order is
1, i, j, k, e, ie, je, ke.

The imaginary basis is then re-aligned by a fixed signed permutation so that
the derivation-invariant 3-form of the split algebra is literally the
indefinite reference form PHITILDE (and, for the compact algebra, PHI).
The alignment is a frozen constant; `derive_alignment` recomputes it from
scratch and the CLI exposes that as a subcommand.
"""

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import permutations, product

from .isotropy import invariant_kform_basis
from .linalg import frac, kernel, mat_mul, transpose
from .multilinear import KForm, pullback
from .stable_forms import PHI, PHITILDE

_QTABLE = {
    # quaternion basis products: (i, j) -> (sign, k)
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quat_mul(x, y):
    """Quaternion product of two length-4 rational vectors."""
    out = [Fraction(0)] * 4
    for i in range(4):
        xi = x[i]
        if xi == 0:
            continue
        for j in range(4):
            yj = y[j]
            if yj == 0:
                continue
            s, k = _QTABLE[(i, j)]
            out[k] += s * xi * yj
    return out


def quat_conj(x):
    return [x[0], -x[1], -x[2], -x[3]]


def _raw_table(gamma):
    """8x8 signed-index table for the Cayley-Dickson double of H."""
    table = [[0] * 8 for _ in range(8)]
    basis = [([Fraction(1) if t == p else Fraction(0) for t in range(4)],
              [Fraction(0)] * 4) for p in range(4)]
    basis += [([Fraction(0)] * 4,
               [Fraction(1) if t == p else Fraction(0) for t in range(4)])
              for p in range(4)]
    for ii in range(8):
        a, b = basis[ii]
        for jj in range(8):
            c, d = basis[jj]
            first = [x + gamma * y for x, y in
                     zip(quat_mul(a, c), quat_mul(quat_conj(d), b))]
            second = [x + y for x, y in
                      zip(quat_mul(d, a), quat_mul(b, quat_conj(c)))]
            coords = first + second
            nz = [(p, v) for p, v in enumerate(coords) if v != 0]
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                raise AssertionError("doubling did not yield a signed basis")
            p, v = nz[0]
            table[ii][jj] = (p + 1) if v > 0 else -(p + 1)
    return table


def _signed(t):
    """(k, sign) of a table entry t = sign * (k + 1): e_i e_j = sign e_k."""
    return abs(t) - 1, (1 if t > 0 else -1)


@dataclass(frozen=True)
class OctonionAlgebra:
    """Eight-dimensional alternative algebra with a signed-index table."""

    kind: str  # "compact" | "split"
    table: tuple  # table[i][j] = +-(k+1): e_i e_j = sign * e_k

    def multiply(self, x, y):
        """Bilinear extension of the basis table to 8-vectors."""
        out = [Fraction(0)] * 8
        for i in range(8):
            xi = frac(x[i])
            if xi == 0:
                continue
            row = self.table[i]
            for j in range(8):
                yj = frac(y[j])
                if yj == 0:
                    continue
                t = row[j]
                k = abs(t) - 1
                out[k] += (xi * yj) if t > 0 else -(xi * yj)
        return out


def derivation_algebra(table):
    """Exact basis of derivations of the 7-dimensional imaginary part.

    D is a derivation when D(x*y) = D(x)*y + x*D(y); the unit forces
    D(e_0) = 0, so D is determined by a 7x7 matrix.  Each component of each
    pair's equation is one sparse integer row in the 49 unknowns D[r][c],
    and one `kernel` solves them all.  Returns 7x7 matrices.
    """
    rows = []
    for i in range(1, 8):
        for j in range(1, 8):
            # eq[m]: component m of D(e_i e_j) - D(e_i) e_j - e_i D(e_j)
            eq = [{} for _ in range(8)]
            k, sk = _signed(table[i][j])
            if k:  # D(e_i e_j) = sk D(e_k); D kills the unit
                for m in range(1, 8):
                    eq[m][7 * (m - 1) + k - 1] = sk
            # D(e_i) e_j = sum_r D[r][i] e_r e_j, e_i D(e_j) likewise
            for r in range(1, 8):
                for t, c in ((table[r][j], 7 * (r - 1) + i - 1),
                             (table[i][r], 7 * (r - 1) + j - 1)):
                    m, s = _signed(t)
                    eq[m][c] = eq[m].get(c, 0) - s
            rows += eq
    basis = kernel(rows, 49)
    return [[[v[7 * r + c] for c in range(7)] for r in range(7)] for v in basis]


def invariant_3form_ray(derivations):
    """The 3-form ray annihilated by every derivation (normalized)."""
    forms = invariant_kform_basis(derivations, (), 3, 7)
    if len(forms) != 1:
        raise AssertionError(f"invariant ray is {len(forms)}-dimensional")
    f = forms[0]
    lead = f.terms.get((1, 2, 3))
    if not lead:
        raise AssertionError("invariant form has no w123 component")
    return (1 / lead) * f


def _search_alignment(table, target: KForm):
    """Signed permutation (sigma, signs) with pullback = target, 3+4 blocks.

    The first alignment in lexicographic order is returned, so the result is
    reproducible.
    """
    ray = invariant_3form_ray(derivation_algebra(table))
    for p3 in permutations((1, 2, 3)):
        for p4 in permutations((4, 5, 6, 7)):
            sigma = p3 + p4
            for s3 in product((1, -1), repeat=3):
                for s4 in product((1, -1), repeat=4):
                    signs = s3 + s4
                    if pullback(_signed_perm_matrix(sigma, signs),
                                ray) == target:
                        return sigma, signs
    raise AssertionError("no block signed permutation aligns the tables")


def derive_alignment(kind: str):
    """Recompute the basis alignment for 'split' or 'compact' from scratch."""
    gamma = 1 if kind == "split" else -1
    target = PHITILDE if kind == "split" else PHI
    return _search_alignment(_raw_table(gamma), target)


def _signed_perm_matrix(sigma, signs):
    """Matrix T with T e_i = signs[i] e_{sigma[i]} (columns are images)."""
    t = [[Fraction(0)] * 7 for _ in range(7)]
    for i in range(7):
        t[sigma[i] - 1][i] = Fraction(signs[i])
    return t


def _realign_table(table, sigma, signs):
    """Re-express the table in the basis u_i = signs[i] * e_{sigma[i]}."""
    inv = {sigma[i]: (i + 1, signs[i]) for i in range(7)}
    new = [[0] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(8):
            si = signs[i - 1] if i >= 1 else 1
            oi = sigma[i - 1] if i >= 1 else 0
            sj = signs[j - 1] if j >= 1 else 1
            oj = sigma[j - 1] if j >= 1 else 0
            k, sk = _signed(table[oi][oj])
            s = si * sj * sk
            if k == 0:
                new[i][j] = 1 if s > 0 else -1
            else:
                ui, su = inv[k]
                s *= su  # e_k = su * u_ui  =>  coefficient flips with su
                new[i][j] = (ui + 1) if s > 0 else -(ui + 1)
    return tuple(tuple(row) for row in new)


@cache
def octonion_algebra(kind: str) -> OctonionAlgebra:
    """The compact or split octonions in the reference-form-aligned basis."""
    if kind not in ("compact", "split"):
        raise ValueError(f"unknown octonion algebra kind: {kind!r}")
    gamma = 1 if kind == "split" else -1
    sigma, signs = FROZEN_ALIGNMENTS[kind]
    return OctonionAlgebra(
        kind=kind, table=_realign_table(_raw_table(gamma), sigma, signs))


def is_automorphism(alg: OctonionAlgebra, m) -> bool:
    """Does the 7x7 map m (fixing the unit) preserve the multiplication?

    Checking all 49 imaginary basis pairs suffices by bilinearity.
    """
    images = []
    for i in range(1, 8):
        img = [Fraction(0)] * 8
        for r in range(1, 8):
            img[r] = frac(m[r - 1][i - 1])
        images.append(img)
    unit = [Fraction(1)] + [Fraction(0)] * 7
    exts = [unit] + images
    for i in range(1, 8):
        for j in range(1, 8):
            k, sk = _signed(alg.table[i][j])
            lhs = [sk * x for x in exts[k]]
            rhs = alg.multiply(images[i - 1], images[j - 1])
            if lhs != rhs:
                return False
    return True


@dataclass(frozen=True)
class UnitQuaternion:
    """Exact unit quaternion (q0, q1, q2, q3) with q.q = 1."""

    q: tuple

    def __post_init__(self):
        if sum(frac(x) ** 2 for x in self.q) != 1:
            raise ValueError("quaternion does not have exact unit norm")

    @staticmethod
    def from_integers(a, b, c, d):
        """Exact unit quaternion u^2/|u|^2 for an integer quadruple u != 0."""
        n = a * a + b * b + c * c + d * d
        if n == 0:
            raise ValueError("zero quadruple")
        sq = quat_mul([Fraction(a), Fraction(b), Fraction(c), Fraction(d)],
                      [Fraction(a), Fraction(b), Fraction(c), Fraction(d)])
        return UnitQuaternion(tuple(x / n for x in sq))

    def conj(self):
        q0, q1, q2, q3 = self.q
        return UnitQuaternion((q0, -q1, -q2, -q3))

    def __mul__(self, other):
        return UnitQuaternion(tuple(quat_mul(list(self.q), list(other.q))))


def _chi_raw(q1: UnitQuaternion, q2: UnitQuaternion):
    """chi in the raw doubling basis: a + be -> q1 a conj(q1) + (q2 b conj(q1)) e."""
    cols = []
    for i in range(1, 4):  # imaginary quaternion part
        a = [Fraction(0)] * 4
        a[i] = Fraction(1)
        img = quat_mul(quat_mul(list(q1.q), a), list(q1.conj().q))
        cols.append(img[1:] + [Fraction(0)] * 4)
    for i in range(4):  # H e part
        b = [Fraction(0)] * 4
        b[i] = Fraction(1)
        img = quat_mul(quat_mul(list(q2.q), b), list(q1.conj().q))
        cols.append([Fraction(0)] * 3 + img)
    return [[cols[c][r] for c in range(7)] for r in range(7)]


def chi_embedding(q1: UnitQuaternion, q2: UnitQuaternion):
    """The SO(4) element of the split form acting on R^7, aligned basis.

    Exact 7x7 rational matrix; an automorphism of the split octonions that
    preserves PHITILDE.  chi(-q1, -q2) = chi(q1, q2).  The alignment T is
    a signed permutation, so T^-1 = T^T.
    """
    sigma, signs = FROZEN_ALIGNMENTS["split"]
    t = _signed_perm_matrix(sigma, signs)
    raw = _chi_raw(q1, q2)
    return mat_mul(mat_mul(transpose(t), raw), t)


# ---------------------------------------------------------------------------
# frozen alignment constants (see derive_alignment for the search)
# ---------------------------------------------------------------------------

FROZEN_ALIGNMENTS = {
    # verified against derive_alignment() by the test suite and the
    # `g2forms octonion-alignment` subcommand
    "split": ((1, 2, 3, 4, 5, 6, 7), (1, 1, 1, 1, 1, 1, -1)),
    "compact": ((1, 2, 3, 4, 5, 6, 7), (1, 1, 1, 1, 1, 1, -1)),
}
