"""Exact linear algebra over the rationals.

Matrices are lists of lists of rationals (Fraction or int; `mat` promotes
to Fraction).  One fraction-free Gauss-Jordan on sparse primitive integer
rows {col: int}, `_echelon`, runs under every elimination.  The reduced
row echelon form is unique, so no output depends on the pivot order.
Three readers sit on it: `rank`; `kernel`, which reads a null space basis
straight off the integer echelon rows of a sparse integer system, and off
which `nullspace` (the cleared rows of a matrix), `rref` and `solve` are
read; and `Basis.from_echelon`, the one reader of coordinates in a basis,
each answer checked by one exact recombination.
The fraction-free routines `adjugate`, `charpoly` and `inertia` run one
integer recursion each, dividing exactly with `//` (`charpoly`,
Berkowitz's, divides not at all); `det` and `inverse` are read off
`adjugate`, and `leading_principal_minors` is the `det` of each leading
block.  An all-int matrix is read as it is and gives ints, and a rational
one is cleared once to L a and gives the rescaled Fractions.
Signatures of symmetric matrices come from `inertia`, one symmetric
fraction-free elimination read by Jacobi's rule, which gives the
determinant as well.  No floating point.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows):
    """Promote a nested sequence to a Fraction matrix (copies)."""
    return [[frac(x) for x in row] for row in rows]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(n):
    return [[ZERO] * n for _ in range(n)]


def block_diag(blocks):
    """The block-diagonal matrix of square blocks, in order, as Fractions."""
    out = zeros(sum(map(len, blocks)))
    for at, b in zip(accumulate(map(len, blocks), initial=0), blocks):
        for i, row in enumerate(b, at):
            out[i][at:at + len(row)] = map(frac, row)
    return out


def embed_block(small, size, offset):
    """`small` at rows and columns offset.. of a size x size zero matrix."""
    return block_diag([zeros(offset), small,
                       zeros(size - offset - len(small))])


def sparse(m):
    """The nonzero entries of a matrix as {(r, c): v}; integral values as int."""
    return {(r, c): v.numerator if v.denominator == 1 else v
            for r, row in enumerate(m) for c, v in enumerate(row) if v}


def sparse_vector(v):
    """The nonzero entries of a vector as {i: v}."""
    return {i: x for i, x in enumerate(v) if x}


def sparse_mul(a, b):
    """Product of two sparse matrices {(r, c): v}; zero entries dropped."""
    brows = {}
    for (k, c), v in b.items():
        brows.setdefault(k, []).append((c, v))
    out = {}
    for (r, k), v in a.items():
        for c, w in brows.get(k, ()):
            out[r, c] = out.get((r, c), 0) + v * w
    return {rc: v for rc, v in out.items() if v}


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def cleared(rows):
    """Rational rows as integer rows and one common denominator den, with
    rows[i][j] == ints[i][j] / den; int rows come back with den 1."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in rows], den


def _primitive(row):
    """A sparse integer row {col: v} divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _int_row(row):
    """A rational row times the lcm of its denominators, as a sparse
    integer row."""
    nz = {c: x for c, x in enumerate(row) if x}
    den = math.lcm(*(x.denominator for x in nz.values()))
    return {c: x.numerator * (den // x.denominator) for c, x in nz.items()}


def _eliminate(row, piv, c):
    """row * p - f * piv, f and p the column-c entries; made primitive."""
    f, p = row[c], piv[c]
    g = math.gcd(f, p)
    f, p = f // g, p // g
    out = {k: v * p for k, v in row.items()} if p != 1 else dict(row)
    for k, w in piv.items():
        v = out.get(k, 0) - f * w
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return _primitive(out) if out else out


def _echelon(rows):
    """The reduced echelon form of sparse integer rows {col: v}, in integers.

    Fraction-free Gauss-Jordan, one row at a time, zero entries dropped: a
    row is reduced by the pivot row of each pivot column it holds, each
    step row * p - f * pivot_row divided by its content; a row left
    nonzero is made primitive, takes its leftmost column as its pivot and
    reduces the pivot rows that hold that column.  That step adds only
    columns right of the new pivot, and a pivot row holds no column left
    of its own pivot, so every pivot row starts at its pivot and is zero
    in every other pivot column: row / row[pivot] is a row of the RREF,
    which is unique, so the row order does not show.  Returns the (pivot
    column, row) pairs in column order.
    """
    basis = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        for c in [c for c in row if c in basis]:
            row = _eliminate(row, basis[c], c)
        if not row:
            continue
        row = _primitive(row)
        pc = min(row)
        for k, r in basis.items():
            if pc in r:
                basis[k] = _eliminate(r, row, pc)
        basis[pc] = row
    return sorted(basis.items())


def rref(a):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Read off the `kernel` of the rows of a, each cleared to integers: a
    free column fc's kernel vector v is 1 at fc, its last nonzero entry,
    and R[pc][fc] = -v[pc] at every other column pc, a pivot.  R, all
    Fractions, keeps the row count of a, padded with zero rows.
    """
    ncols = len(a[0]) if a else 0
    free = {max(c for c, x in enumerate(v) if x): v
            for v in kernel(map(_int_row, a), ncols)}
    pivots = [c for c in range(ncols) if c not in free]
    out = [[-free[c][pc] if c in free else ONE if c == pc else ZERO
            for c in range(ncols)] for pc in pivots]
    out += [[ZERO] * ncols for _ in range(len(a) - len(pivots))]
    return out, pivots


def rank(a):
    return len(_echelon(map(_int_row, a)))


def kernel(rows, ncols):
    """Basis of {x : r x = 0 for every row r}, the rows sparse integer
    rows {col: v} (zero entries allowed) over ncols columns, ordered as
    `nullspace` orders it: one vector per free column fc, v[fc] = 1 and
    v[pc] = -r[fc] / r[pc] for the `_echelon` row r of pivot column pc.
    No rows give the identity basis and run no elimination.
    """
    rows = list(rows)
    done = _echelon(rows) if rows else []
    pivots = {c for c, _ in done}
    basis = {fc: v for fc, v in enumerate(identity(ncols)) if fc not in pivots}
    for pc, r in done:
        p = r[pc]
        for fc, x in r.items():
            if fc != pc:
                basis[fc][pc] = Fraction(-x, p)
    return list(basis.values())


@dataclass(frozen=True)
class Basis:
    """The one exact reader of coordinates in a basis of sparse rows B_k
    {key: v} with no zero value: a pivot key p_i per row, d > 0 and the
    rows of N = d P^-1, P[k][i] = B_k[p_i], as (k, v) pairs.  Built by
    `from_echelon` for any independent rows, or by `from_kernel` for a
    `kernel` basis, whose shape it checks; both feed `read`."""

    rows: tuple
    pivots: tuple
    d: int
    inverse: tuple

    @classmethod
    def from_echelon(cls, rows):
        """The reader of independent rows, from one `_echelon` of [B | I]
        on the keys in sorted order; None if the rows are dependent.  The
        echelon rows of B_k | e_k are sum_k a_k B_k | a, with q_i at p_i
        and 0 at the other pivots: N[i][k] = a_k d / q_i, d = lcm q_i."""
        rows = [tuple(b.items()) for b in rows]
        keys = sorted({c for b in rows for c, _ in b})
        pos, n = {c: i for i, c in enumerate(keys)}, len(keys)
        done = _echelon({**{pos[c]: v for c, v in b}, n + k: 1}
                        for k, b in enumerate(rows))
        if done and done[-1][0] >= n:
            return None
        d = math.lcm(*(r[c] for c, r in done))
        return cls(tuple(rows), tuple(keys[c] for c, _ in done), d, tuple(
            tuple((k - n, v * (d // r[c])) for k, v in r.items() if k >= n)
            for c, r in done))

    @classmethod
    def from_kernel(cls, rows):
        """The reader of a `kernel` basis: p_k is B_k's last key, N = 1 and
        d = 1.  Each row must be 1 at its last key, where no other row is
        nonzero; other rows are refused with a ValueError, so that every
        None of `read` is a proof."""
        rows = list(rows)
        pivots = [max(b, default=None) for b in rows]
        hits = Counter(c for b in rows for c in b)
        if any(p is None or b[p] != 1 or hits[p] != 1
               for b, p in zip(rows, pivots)):
            raise ValueError("not a kernel basis: a row is not 1 alone at "
                             "its last key")
        return cls(tuple(tuple(b.items()) for b in rows), tuple(pivots), 1,
                   tuple(((k, 1),) for k in range(len(rows))))

    def read(self, x):
        """y with sum_k y_k B_k = d x, for a sparse map x {key: v} with no
        zero value, or None when x is off the span: y = x_p N, confirmed
        by one exact recombination."""
        y = [0] * len(self.rows)
        for p, row in zip(self.pivots, self.inverse):
            if v := x.get(p):
                for k, a in row:
                    y[k] += a * v
        back = {}
        for c, b in zip(y, self.rows):
            if c:
                for key, v in b:
                    back[key] = back.get(key, 0) + c * v
        d = self.d
        if {key: v for key, v in back.items() if v} != (
                x if d == 1 else {key: d * v for key, v in x.items()}):
            return None
        return y


def nullspace(a):
    """Basis of {x : a x = 0}, echelonized, deterministic ordering: the
    `kernel` of the rows of a, each cleared to integers."""
    return kernel(map(_int_row, a), len(a[0]) if a else 0)


def solve(a, bs):
    """One solution x of a x = b for each b in bs, free variables zero: the
    `kernel` of [a | -b_1 ... -b_m], rows cleared to integers, read at the
    b columns.  With every b before it consistent, a b column is free (its
    kernel vector 1 there) exactly when its b is, and a pivot column reads
    0.  Returns the Fraction solutions, or None if any b is inconsistent; a
    ValueError refuses a b whose length is not the row count of a."""
    if any(len(b) != len(a) for b in bs):
        raise ValueError(f"every right-hand side needs {len(a)} entries, "
                         "one per row")
    cols, m = (len(a[0]) if a else 0), len(bs)
    xs = kernel(map(_int_row, ([*row, *(-b[i] for b in bs)]
                               for i, row in enumerate(a))), cols + m)
    xs = xs[-m:] if m else []
    if len(xs) < m or any(x[c] != 1 for c, x in enumerate(xs, cols)):
        return None
    return [x[:cols] for x in xs]


def inverse(a):
    """a^-1 = L adj(A) / det A for the cleared A = L a (`adjugate`, which
    refuses a non-square a), as Fractions; a singular a is refused."""
    ints, den = cleared(a)
    d, adj = adjugate(ints)
    if adj is None:
        raise ValueError("matrix is singular")
    return [[Fraction(den * x, d) for x in row] for row in adj]


def _integral(a):
    """(A, L) with a == A / L, A integer: an all-int matrix as it is, with
    L None; any other cleared once.  A non-square a is refused here for
    `det`, `charpoly`, `inertia` and `leading_principal_minors`."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if all(isinstance(x, int) for row in a for x in row):
        return a, None
    return cleared(a)


def adjugate(b):
    """(det b, adj b) of an int matrix; (0, None) when b is singular.

    One fraction-free Gauss-Jordan on [b | I]: each step replaces every
    other row by (p * row - f * pivot_row) / previous pivot, an exact
    division.  The row operations R bring b to d I, d = +-det b (the sign
    of the row swaps), so R = d b^-1 = +-adj b.  Integer in, integer out;
    a ValueError refuses a non-square b, so `det` and `inverse` do too.
    """
    n = len(b)
    if any(len(row) != n for row in b):
        raise ValueError("matrix is not square")
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(b)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pr is None:
                return 0, None
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        pk = m[k]
        piv = pk[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            m[i] = [(x * piv - f * y) // prev for x, y in zip(row, pk)]
        prev = piv
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def det(a):
    """Determinant, read off `adjugate`: an int for integer input, and the
    Fraction det A / L^n for a rational a = A / L."""
    ints, den = _integral(a)
    d = adjugate(ints)[0]
    return d if den is None else Fraction(d, den ** len(a))


def charpoly(a):
    """Coefficients [c_0, ..., c_n] of det(xI - a) = sum c_k x^k (c_n = 1).

    Berkowitz's division-free recursion on integers: bordering the leading
    r x r block A by the row R, the column C and the corner a_rr multiplies
    its characteristic polynomial by the lower-triangular Toeplitz matrix
    with first column 1, -a_rr, -R C, -R A C, ..., -R A^(r-1) C.  Each
    inner product is one `sum(map(mul, ...))`, and the Toeplitz product
    runs over the nonzero entries of that column only.  Integer input
    returns ints; a rational a = A / L returns the Fractions
    c_k / L^(n-k), c_k the coefficients of A.  A non-square a is refused.
    """
    n = len(a)
    ints, den = _integral(a)
    poly = [1]  # of the leading r x r block, highest degree first
    for r in range(n):
        block = [row[:r] for row in ints[:r]]
        border = ints[r][:r]
        col = [row[r] for row in ints[:r]]
        toeplitz = [1, -ints[r][r]]
        for k in range(r):
            if k:
                col = [sum(map(mul, row, col)) for row in block]
            toeplitz.append(-sum(map(mul, border, col)))
        bordered = [0] * (r + 2)
        for k, v in enumerate(toeplitz):
            if v:
                for j, c in enumerate(poly[:r + 2 - k]):
                    bordered[j + k] += v * c
        poly = bordered
    coeffs = poly[::-1]
    if den is None:
        return coeffs
    return [Fraction(c, den ** (n - k)) for k, c in enumerate(coeffs)]


def _poly_trim(p):
    """p (lowest degree first) without its zero leading coefficients."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_gcd(a, b):
    """Monic gcd of two polynomials, coefficient lists lowest degree first.

    Euclid over the rationals; not both may be zero.
    """
    a, b = _poly_trim(map(frac, a)), _poly_trim(map(frac, b))
    while b:
        # a <- a mod b
        while len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] -= q * y
            a = _poly_trim(a)
        a, b = b, a
    return [x / a[-1] for x in a]


def root_multiplicities(coeffs):
    """Sorted multiplicities of the distinct complex roots of a polynomial.

    Squarefree counting in the style of Yun, with no factoring: for
    g_0 = f and g_k = gcd(g_(k-1), g_(k-1)'), deg g_(k-1) - deg g_k is the
    number of roots of multiplicity at least k.
    """
    g = _poly_trim(coeffs)
    at_least = []
    while len(g) > 1:
        h = poly_gcd(g, [k * c for k, c in enumerate(g)][1:])
        at_least.append(len(g) - len(h))
        g = h
    at_least.append(0)
    return [k for k in range(1, len(at_least))
            for _ in range(at_least[k - 1] - at_least[k])]


def inertia(a):
    """(p, q, det a) of an exact symmetric matrix: its signature and its
    determinant, from one symmetric fraction-free elimination.

    Bareiss on the active block, every division exact: the next pivot is the
    next nonzero diagonal entry, swapped into place by its row and its
    column.  When the active diagonal is zero but some m_ij is not, the
    congruence row_i += row_j, col_i += col_j (bordered minors are linear in
    their bordering row and column) makes m_ii = 2 m_ij; an all-zero active
    block ends the walk, its size the nullity.  The pivots p_1..p_r are then
    the leading minors of a matrix congruent to a, so by Jacobi's rule q is
    the number of sign changes in 1, p_1, ..., p_r and p = r - q; the swaps
    and the congruence have determinant +-1 on both sides, so det a = p_n
    when r = n and 0 otherwise.  Only the cells j >= i are eliminated, and
    mirrored.  Integer input gives an int det; a rational a = A / L is
    cleared once and gives the Fraction det A / L^n (L > 0 keeps the signs).
    A non-square a is refused.
    """
    n = len(a)
    ints, den = _integral(a)
    m = [list(row) for row in ints]
    prev = 1
    q = r = 0
    for k in range(n):
        at = next((i for i in range(k, n) if m[i][i]), None)
        if at is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                         if m[i][j]), None)
            if pair is None:
                break
            at, j = pair
            row, src = m[at], m[j]
            for c in range(k, n):
                row[c] += src[c]
            for c in range(k, n):
                m[c][at] += m[c][j]
        if at != k:
            m[k], m[at] = m[at], m[k]
            for row in m[k:]:
                row[k], row[at] = row[at], row[k]
        pk = m[k]
        piv = pk[k]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            for j in range(i, n):
                v = (mi[j] * piv - f * pk[j]) // prev
                mi[j] = v
                m[j][i] = v
        q += (piv < 0) != (prev < 0)
        prev = piv
        r += 1
    d = prev if r == n else 0
    return r - q, q, d if den is None else Fraction(d, den ** n)


def leading_principal_minors(b):
    """Leading principal minors d_1..d_n, the `det` of each leading block
    of the cleared matrix, or None when one vanishes before the last (b is
    then not definite).  Integer input returns ints; a rational b = B / L
    returns the Fractions d_k(B) / L^k.  A non-square b is refused.
    """
    ints, den = _integral(b)
    minors = []
    for k in range(1, len(ints) + 1):
        d = det([row[:k] for row in ints[:k]])
        if not d and k < len(ints):
            return None
        minors.append(d if den is None else Fraction(d, den ** k))
    return minors


def intersect_nullspaces(mats):
    """Basis of the joint kernel of a list of matrices (same column count)."""
    return nullspace([row for m in mats for row in m])
