"""Lie algebras as exact structure constants, and their isotropy modules.

A Lie algebra is its structure constants c^k_ij on a fixed ordered basis,
with the invariant inner product <X, Y> = -trace(XY).  Rational ambient
matrices only build it: `MatrixLieAlgebra` clears its basis once to sparse
integer matrices over one denominator, and reads coordinates, the
structure constants and the trace form off them, the latter two once, as
integer tables over one denominator each; every later step (brackets,
complements, isotropy actions) works on coordinate vectors.  The trace
form is definite on every compact realization used here (abelian factors
are realized as rotation blocks, so the same formula covers them).  A
reductive complement V of a subalgebra h gives an isotropy module, a
frozen value: the h-action matrices on V, the V-part of the bracket, the
restricted inner product, h and V in g-coordinates, and any finite
component generators.  The complement's pair brackets, and the images of
h and V under a generator, are integer combinations over the cleared h
and V vectors, read off with one integer `solve` each.

Everything through `invariant_dims` is exact.  `irreducible_dims` is
certified: a random self-adjoint commutant element, the gram's inverse
times an invariant symmetric form, splits V into its eigenspaces, whose
dimensions are the root multiplicities of its characteristic polynomial,
and the split is accepted only when a commutant dimension count proves
every eigenspace irreducible.  `invariant_form_types` runs the family scan
of `scan` on the invariant 3-forms, with the Schur obstruction on the
irreducible dimensions (`schur_exclusion`: no member indefinite) as its
exclusion of the indefinite class.
"""

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from types import MappingProxyType

from .linalg import (adjugate, charpoly, cleared, frac, identity,
                     intersect_nullspaces, inverse, leading_principal_minors,
                     mat, mat_mul, mat_sub, nullspace, rank,
                     root_multiplicities, rref, solve, transpose)
from .multilinear import (KForm, lambda_k_action_matrix,
                          lambda_k_pullback_matrix)
from .scan import ScanConfig, scan_family
from .stable_forms import primitive_int_vector


def _flatten(m):
    return [x for row in m for x in row]


def _frozen_matrix(m):
    return tuple(tuple(row) for row in m)


def _sparse(m):
    """The nonzero entries of a matrix as {(r, c): v}; integral values as int."""
    return {(r, c): v.numerator if v.denominator == 1 else v
            for r, row in enumerate(m) for c, v in enumerate(row) if v}


def _sparse_mul(a, b):
    """Product of two sparse matrices {(r, c): v}; zero entries dropped."""
    brows = {}
    for (k, c), v in b.items():
        brows.setdefault(k, []).append((c, v))
    out = {}
    for (r, k), v in a.items():
        for c, w in brows.get(k, ()):
            out[r, c] = out.get((r, c), 0) + v * w
    return {rc: v for rc, v in out.items() if v}


def _sparse_commutator(a, b):
    ab, ba = _sparse_mul(a, b), _sparse_mul(b, a)
    out = {rc: ab.get(rc, 0) - ba.get(rc, 0) for rc in ab.keys() | ba.keys()}
    return {rc: v for rc, v in out.items() if v}


@dataclass
class MatrixLieAlgebra:
    """A Lie algebra built from rational matrices with a fixed ordered basis.

    The basis matrices are cleared once to sparse integer matrices B_k over
    one denominator L, b_k = B_k / L, and read only for coordinates
    (`coords`), the structure constants and the trace form.  The latter two
    are integer tables over one denominator each, computed once; brackets
    then work on coordinate vectors, and `structure_constants` and
    `trace_form` build their Fraction views on request.
    """

    name: str
    basis: list

    @property
    def dim(self):
        return len(self.basis)

    @property
    def size(self):
        return len(self.basis[0]) if self.basis else 0

    @cached_property
    def _int_basis(self):
        # (B_k, L): the basis cleared once to sparse integer matrices over
        # one denominator
        flat, den = cleared([_flatten(b) for b in self.basis])
        n = self.size
        return [{divmod(i, n): v for i, v in enumerate(row) if v}
                for row in flat], den

    @cached_property
    def _coord_solver(self):
        # the pivot cells of the flattened B_k, and det > 0 and the sparse
        # columns of adj of the pivot submatrix P (both negated when
        # det P < 0): y = adj x_p solves sum_k y_k B_k = det x for every x
        # in the span, which the exact span check then confirms
        cells = [divmod(i, self.size) for i in range(self.size ** 2)]
        flat = [[b.get(rc, 0) for rc in cells] for b in self._int_basis[0]]
        _, pivots = rref(flat)
        if len(pivots) != self.dim:
            raise ValueError(f"{self.name}: basis is linearly dependent")
        d, adj = adjugate([[row[p] for row in flat] for p in pivots])
        sign = 1 if d > 0 else -1
        cols = [[(r, sign * row[k]) for r, row in enumerate(adj) if row[k]]
                for k in range(self.dim)]
        return [cells[p] for p in pivots], sign * d, cols

    def coords(self, x):
        """Coordinates of an ambient matrix in the basis; None if outside."""
        if not self.basis:
            return None
        xi, m = cleared(x)
        y = self._int_coords(_sparse(xi))
        if y is None:
            return None
        # sum_k y_k B_k = det m x, and x = sum_k c_k B_k / L
        den = self._int_basis[1]
        q = self._coord_solver[1] * m
        return [Fraction(v * den, q) for v in y]

    def _int_coords(self, x):
        """y with sum_k y_k B_k = det x, for a sparse integer matrix x
        {(r, c): v} in the span of the B_k; None if outside."""
        cells, d, cols = self._coord_solver
        y = [0] * self.dim
        for k, rc in enumerate(cells):
            if rc in x:
                v = x[rc]
                for r, a in cols[k]:
                    y[r] += a * v
        # exact span check
        span = {}
        for yk, b in zip(y, self._int_basis[0]):
            if yk:
                for rc, v in b.items():
                    span[rc] = span.get(rc, 0) + yk * v
        if {rc: v for rc, v in span.items() if v} != {
                rc: d * v for rc, v in x.items()}:
            return None
        return y

    @cached_property
    def _structure(self):
        # (T, D): [b_i, b_j] = sum_k c_k b_k / D over the integer pairs
        # (k, c_k) of T[i][j], c_k != 0; [B_i, B_j] = L^2 [b_i, b_j], so
        # D = det L
        ints, den = self._int_basis
        d = self.dim
        table = [[()] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                y = self._int_coords(_sparse_commutator(ints[i], ints[j]))
                if y is None:
                    raise ValueError(
                        f"{self.name}: bracket [b{i}, b{j}] leaves the span")
                table[i][j] = tuple((k, c) for k, c in enumerate(y) if c)
                table[j][i] = tuple((k, -c) for k, c in table[i][j])
        return table, self._coord_solver[1] * den

    @cached_property
    def _structure_constants(self):
        # the Fraction view, built on the first request
        table, den = self._structure
        out = [[[Fraction(0)] * self.dim for _ in row] for row in table]
        for row, terms_row in zip(out, table):
            for c, terms in zip(row, terms_row):
                for k, v in terms:
                    c[k] = Fraction(v, den)
        return out

    def structure_constants(self):
        """c[i][j] = coordinates of [b_i, b_j]; raises if not closed.

        A Fraction view of the integer table, built on the first call.
        """
        return self._structure_constants

    def _table_bracket(self, x, y):
        """D [x, y] on the integer table: integer for integer x and y."""
        table, _ = self._structure
        out = [0] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = table[i]
            for j, yj in ys:
                s = xi * yj
                for k, c in row[j]:
                    out[k] += s * c
        return out

    @cached_property
    def _int_trace_form(self):
        # (G, L^2): G[i][j] = -tr(B_i B_j) = L^2 <b_i, b_j>
        ints, den = self._int_basis
        d = self.dim
        g = [[0] * d for _ in range(d)]
        for i, x in enumerate(ints):
            for j in range(i, d):
                y = ints[j]
                g[i][j] = g[j][i] = -sum(v * y.get((c, r), 0)
                                         for (r, c), v in x.items())
        return g, den * den

    @cached_property
    def _trace_form(self):
        # the Fraction view, built on the first request
        g, den = self._int_trace_form
        return [[Fraction(v, den) for v in row] for row in g]

    def trace_form(self):
        """Gram matrix of <X, Y> = -tr(XY) on the basis, as Fractions."""
        return self._trace_form


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _embed_block(small, size, offset):
    out = [[Fraction(0)] * size for _ in range(size)]
    k = len(small)
    for i in range(k):
        for j in range(k):
            out[offset + i][offset + j] = frac(small[i][j])
    return out


def creal(a, b):
    """Real 2n x 2n expansion of the complex matrix a + i b."""
    n = len(a)
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for p in range(n):
        for q in range(n):
            x, y = frac(a[p][q]), frac(b[p][q])
            out[2 * p][2 * q] = x
            out[2 * p][2 * q + 1] = -y
            out[2 * p + 1][2 * q] = y
            out[2 * p + 1][2 * q + 1] = x
    return out


def _czero(n):
    return [[Fraction(0)] * n for _ in range(n)]


def so_basis(n):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            m = _czero(n)
            m[i][j] = Fraction(1)
            m[j][i] = Fraction(-1)
            out.append(m)
    return out


def su_basis(n):
    """Real 2n x 2n basis of su(n): off-diagonal pairs, then diagonal tori."""
    out = []
    for p in range(n):
        for q in range(p + 1, n):
            a = _czero(n)
            a[p][q] = Fraction(1)
            a[q][p] = Fraction(-1)
            out.append(creal(a, _czero(n)))
            b = _czero(n)
            b[p][q] = Fraction(1)
            b[q][p] = Fraction(1)
            out.append(creal(_czero(n), b))
    for p in range(n - 1):
        b = _czero(n)
        b[p][p] = Fraction(1)
        b[p + 1][p + 1] = Fraction(-1)
        out.append(creal(_czero(n), b))
    return out


def u_basis(n):
    """u(n) = su(n) + center, realized over R."""
    b = _czero(n)
    for p in range(n):
        b[p][p] = Fraction(1)
    return su_basis(n) + [creal(_czero(n), b)]


def diag_torus_su(n, weights):
    """i * diag(weights) in su(n)/u(n), real 2n x 2n."""
    b = _czero(n)
    for p, w in enumerate(weights):
        b[p][p] = frac(w)
    return creal(_czero(n), b)


def sp_matrix(a_re, a_im, b_re, b_im):
    """Real 4n x 4n element [[A, B], [-conj B, conj A]] of sp(n).

    A = a_re + i a_im and B = b_re + i b_im are n x n; the 2n x 2n complex
    matrix is assembled, then expanded by `creal`.
    """
    n = len(a_re)
    m_re = _czero(2 * n)
    m_im = _czero(2 * n)
    for p in range(n):
        for q in range(n):
            m_re[p][q] = a_re[p][q]
            m_im[p][q] = a_im[p][q]
            m_re[p][n + q] = b_re[p][q]
            m_im[p][n + q] = b_im[p][q]
            m_re[n + p][q] = -b_re[p][q]
            m_im[n + p][q] = b_im[p][q]
            m_re[n + p][n + q] = a_re[p][q]
            m_im[n + p][n + q] = -a_im[p][q]
    return creal(m_re, m_im)


def sp_basis(n):
    """Real 4n x 4n basis of sp(n) in the form [[A, B], [-conj B, conj A]].

    A runs over u(n), B over complex symmetric matrices; dim = n(2n + 1).
    """
    out = []
    z = _czero(n)
    for p in range(n):
        d = _czero(n)
        d[p][p] = Fraction(1)
        out.append(sp_matrix(z, d, z, z))      # i a_p diagonal
        out.append(sp_matrix(z, z, d, z))      # B = E_pp
        out.append(sp_matrix(z, z, z, d))      # B = i E_pp
    for p in range(n):
        for q in range(p + 1, n):
            a = _czero(n)
            a[p][q] = Fraction(1)
            a[q][p] = Fraction(-1)
            out.append(sp_matrix(a, z, z, z))
            b = _czero(n)
            b[p][q] = Fraction(1)
            b[q][p] = Fraction(1)
            out.append(sp_matrix(z, b, z, z))
            out.append(sp_matrix(z, z, b, z))
            out.append(sp_matrix(z, z, z, b))
    return out


def rotation_block():
    return [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]


def torus_basis(k):
    """R^k as k commuting rotation blocks (2k x 2k); -tr form is definite."""
    out = []
    for p in range(k):
        out.append(_embed_block(rotation_block(), 2 * k, 2 * p))
    return out


def product_algebra(name, factors):
    """Block-diagonal product; basis order follows the factor order."""
    total = sum(f.size for f in factors)
    basis = []
    off = 0
    for f in factors:
        for b in f.basis:
            basis.append(_embed_block(b, total, off))
        off += f.size
    return MatrixLieAlgebra(name=name, basis=basis)


def build_algebra(name: str) -> MatrixLieAlgebra:
    """Classical algebras by name: so(n), su(n), sp(n), u(n), t(k).

    Products are available through `product_algebra`.
    """
    name = name.strip()
    if name.startswith("so(") and name.endswith(")"):
        n = int(name[3:-1])
        if not 2 <= n <= 7:
            raise ValueError(f"unsupported size in {name}")
        return MatrixLieAlgebra(name, so_basis(n))
    if name.startswith("su(") and name.endswith(")"):
        n = int(name[3:-1])
        if not 2 <= n <= 4:
            raise ValueError(f"unsupported size in {name}")
        return MatrixLieAlgebra(name, su_basis(n))
    if name.startswith("u(") and name.endswith(")"):
        n = int(name[2:-1])
        if not 1 <= n <= 4:
            raise ValueError(f"unsupported size in {name}")
        if n == 1:
            return MatrixLieAlgebra(name, torus_basis(1))
        return MatrixLieAlgebra(name, u_basis(n))
    if name.startswith("sp(") and name.endswith(")"):
        n = int(name[3:-1])
        if not 1 <= n <= 2:
            raise ValueError(f"unsupported size in {name}")
        return MatrixLieAlgebra(name, sp_basis(n))
    if name.startswith("t(") and name.endswith(")"):
        k = int(name[2:-1])
        if not 1 <= k <= 7:
            raise ValueError(f"unsupported size in {name}")
        return MatrixLieAlgebra(name, torus_basis(k))
    raise ValueError(f"unknown algebra name: {name!r}")


# ---------------------------------------------------------------------------
# isotropy modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsotropyModule:
    """h-action on the reductive complement V, with finite generators.

    A frozen value all the way down: every matrix, generator matrices
    included, is stored as a tuple of tuples and `brackets` as a read-only
    mapping of tuples, so neither a field nor what it holds can change.
    `action[k]` is the matrix of ad(h_k) on V in the V-basis; `gram` is the
    restricted invariant inner product; `brackets[(i, j)]` is the V-part of
    [v_i, v_j] (the structure constants of the invariant complex).
    `h_coords` and `V_coords` are the bases of h and V in the coordinates of
    the ambient algebra, which is None (and both bases empty) for
    representation-level entries.  `generators` holds the accepted
    (name, V-matrix) pairs, `pending_generators` the (name, ambient matrix,
    expectation) triples that are checked, not included.
    """

    label: str
    dimV: int
    action: tuple
    gram: tuple
    brackets: Mapping = field(default_factory=dict)
    h_coords: tuple = ()
    V_coords: tuple = ()
    generators: tuple = ()
    pending_generators: tuple = ()
    ambient: MatrixLieAlgebra = None

    def __post_init__(self):
        freeze = object.__setattr__
        freeze(self, "action", tuple(_frozen_matrix(a) for a in self.action))
        for name in ("gram", "h_coords", "V_coords"):
            freeze(self, name, _frozen_matrix(getattr(self, name)))
        freeze(self, "brackets", MappingProxyType(
            {ij: tuple(c) for ij, c in self.brackets.items()}))
        freeze(self, "generators", tuple(
            (name, _frozen_matrix(f)) for name, f in self.generators))
        freeze(self, "pending_generators", tuple(
            (name, _frozen_matrix(f), expect)
            for name, f, expect in self.pending_generators))

    @property
    def h_dim(self):
        return len(self.action)

    @cached_property
    def d_one_forms(self):
        """d(e^l) = -sum_{i<j} c^l_ij e^i ^ e^j as 2-forms, l = 1..dimV."""
        return tuple(KForm.make(self.dimV, 2,
                                [((i + 1, j + 1), -c[l])
                                 for (i, j), c in self.brackets.items() if c[l]])
                     for l in range(self.dimV))

    @cached_property
    def _invariant_kforms(self):
        # k -> tuple of basis forms, filled by `invariant_kforms`
        return {}

    @cached_property
    def _irreducible_dims(self):
        # seed -> tuple of dimensions, filled by `irreducible_dims`
        return {}

    @cached_property
    def _action_symmetric_forms(self):
        # the invariant symmetric forms of the action alone, read by
        # `irreducible_dims` and, without generators, by `invariant_dims`
        return tuple(_frozen_matrix(s) for s in
                     _invariant_symmetric_forms(self.action, [], n=self.dimV))

    def kernel_dim(self):
        """dim of {X in h : ad(X)|V = 0} -- must be 0 for effective entries."""
        if not self.action:
            return 0
        cols = [_flatten(a) for a in self.action]
        return len(nullspace(transpose(mat(cols))))


def reductive_complement(g: MatrixLieAlgebra, h_elements,
                         label="") -> IsotropyModule:
    """Split g = h + V orthogonally for -tr(XY) and assemble the module.

    Only the coordinates of the h elements are read from ambient matrices;
    every bracket comes from the integer structure constants.  Each h and V
    vector u_k is cleared to w_k / s_k, w_k integer; the bracket of a pair
    is then an integer combination of structure constants over D s_i s_j,
    and its (h | V) components come from one integer `solve` against the
    w_k (`_solve_cleared`).  Raises when the trace form is not definite or
    h is not a subalgebra; [h, V] subset V and the representation property
    of the action are asserted exactly.
    """
    gram_g, gden = g._int_trace_form
    if not _definite_check(gram_g):
        raise ValueError(f"{g.name}: invariant trace form is not definite")
    hmat = [g.coords(x) for x in h_elements]
    if any(c is None for c in hmat):
        raise ValueError("subalgebra element outside the ambient algebra")
    if hmat and rank(hmat) != len(hmat):
        raise ValueError("subalgebra basis is linearly dependent")
    hdim = len(hmat)
    hw = [_cleared_vector(h) for h in hmat]
    # V = trace-form orthogonal complement of h
    vvecs = (nullspace([_vec_mat(w, gram_g) for w, _ in hw])
             if hmat else identity(g.dim))
    dimv = len(vvecs)
    basis = hw + [_cleared_vector(v) for v in vvecs]
    # (h | V) components of the bracket of every pair of basis vectors, from
    # one solve against the basis h + V of g: D s_i s_j [u_i, u_j] is the
    # table bracket of w_i and w_j
    den = g._structure[1]
    pairs = list(combinations(range(len(basis)), 2))
    comps = _solve_cleared(basis, [
        (g._table_bracket(basis[i][0], basis[j][0]),
         den * basis[i][1] * basis[j][1]) for i, j in pairs])
    split = {ij: (z[:hdim], z[hdim:]) for ij, z in zip(pairs, comps)}

    h_brackets = {}
    for i, j in combinations(range(hdim), 2):
        hpart, vpart = split[(i, j)]
        if any(vpart):
            raise ValueError("h is not closed under the bracket")
        h_brackets[(i, j)] = hpart
    action = []
    for i in range(hdim):
        cols = []
        for j in range(hdim, hdim + dimv):
            hpart, vpart = split[(i, j)]
            if any(hpart):
                raise AssertionError("[h, V] escaped V; trace form broken?")
            cols.append(vpart)
        action.append(transpose(cols))
    brackets = {(i, j): split[(hdim + i, hdim + j)][1]
                for i, j in combinations(range(dimv), 2)}
    vw = basis[hdim:]
    gram_v = [[None] * dimv for _ in range(dimv)]
    for i, (wi, si) in enumerate(vw):
        wg = _vec_mat(wi, gram_g)
        for j in range(i, dimv):
            wj, sj = vw[j]
            gram_v[i][j] = gram_v[j][i] = Fraction(
                sum(x * y for x, y in zip(wg, wj)), gden * si * sj)
    _check_rep_property(action, h_brackets)
    return IsotropyModule(label=label, dimV=dimv, action=action, gram=gram_v,
                          brackets=brackets, h_coords=hmat, V_coords=vvecs,
                          ambient=g)


def _cleared_vector(v):
    """A rational vector as (w, s): w integer, s > 0, v == w / s."""
    (w,), s = cleared([v])
    return w, s


def _vec_mat(w, m):
    """The integer row vector w times the matrix m (rows of equal length)."""
    out = [0] * len(m[0])
    for a, wa in enumerate(w):
        if wa:
            for b, x in enumerate(m[a]):
                if x:
                    out[b] += wa * x
    return out


def _solve_cleared(basis, rhs):
    """Coordinates of each r = p / q of `rhs` in the basis u_k = w_k / s_k.

    `basis` holds the cleared pairs (w_k, s_k) and `rhs` the pairs (p, q),
    p an integer vector.  One `solve` of the integer system sum_k y_k w_k
    = p, then z_k = y_k s_k / q, each nonzero entry rescaled once.  None
    if some r is outside the span.
    """
    ys = solve(transpose([w for w, _ in basis]), [p for p, _ in rhs])
    if ys is None:
        return None
    return [[Fraction(y.numerator * s, y.denominator * q) if y else y
             for y, (_, s) in zip(ys_r, basis)]
            for ys_r, (_, q) in zip(ys, rhs)]


def generator_v_matrix(g, hmat, vvecs, fmat):
    """V-matrix of Ad_F for an ambient group element F; exact, validated.

    F exists only as an ambient matrix, so Ad_F is read off the conjugated
    basis matrices: F is cleared to an integer matrix F', whose adjugate
    A = det(F') F'^-1 replaces the inverse, and each F' B_k A is read in
    integer coordinates.  The images of the h and V vectors are then
    integer combinations of those over one denominator, solved against the
    cleared h and V bases as in `reductive_complement`.
    """
    f, _ = cleared(fmat)
    fdet, adj = adjugate(f)
    if adj is None:
        raise ValueError("matrix is singular")
    f, finv = _sparse(f), _sparse(adj)
    imgs = []
    for b in g._int_basis[0]:
        y = g._int_coords(_sparse_mul(_sparse_mul(f, b), finv))
        if y is None:
            raise ValueError("generator does not normalize the algebra")
        imgs.append(y)
    # Ad_F b_k = sum_l imgs[k][l] b_l / den
    den = g._coord_solver[1] * fdet

    def images(vecs):
        return [(_vec_mat(w, imgs), den * s) for w, s in vecs]

    # h must be preserved (nothing to check when h = 0)
    hw = [_cleared_vector(h) for h in hmat]
    if hw and _solve_cleared(hw, images(hw)) is None:
        raise ValueError("generator does not normalize the subalgebra")
    vw = [_cleared_vector(v) for v in vvecs]
    cols = _solve_cleared(vw, images(vw))
    if cols is None:
        raise ValueError("generator does not preserve the complement")
    return transpose(cols)


def _check_rep_property(action, h_brackets):
    """[rho(h_i), rho(h_j)] = rho([h_i, h_j]) from each bracket's h-coords."""
    rho = [_sparse(a) for a in action]
    for (i, j), coeffs in h_brackets.items():
        rhs = {}
        for c, a in zip(coeffs, rho):
            if c:
                for rc, x in a.items():
                    rhs[rc] = rhs.get(rc, 0) + c * x
        if _sparse_commutator(rho[i], rho[j]) != {rc: v for rc, v
                                                  in rhs.items() if v}:
            raise AssertionError("isotropy action violates the brackets")


def _definite_check(gram):
    minors = leading_principal_minors(cleared(gram)[0])
    return minors is not None and all(m > 0 for m in minors)


def invariant_inner_product(action):
    """The unique invariant symmetric form, positive definite.

    Negated when its (0, 0) entry is negative; a ValueError when the form
    is not unique or not definite.
    """
    forms = _invariant_symmetric_forms(action, [])
    if len(forms) != 1:
        raise ValueError("invariant inner product is not unique")
    gram = forms[0]
    if gram[0][0] < 0:
        gram = [[-x for x in row] for row in gram]
    if not _definite_check(gram):
        raise ValueError("invariant inner product is not definite")
    return gram


def module_from_action(label, action, gram=None) -> IsotropyModule:
    """Module directly from h-action matrices (no ambient pair).

    Used for representation-level entries; if no invariant inner product is
    supplied, `invariant_inner_product` computes it.
    """
    dimv = len(action[0]) if action else 0
    if gram is None:
        gram = invariant_inner_product(action)
    return IsotropyModule(label=label, dimV=dimv, action=action, gram=gram)


# ---------------------------------------------------------------------------
# invariant dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantDims:
    d1: int
    d2: int
    d3: int


def _sym_index(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _invariant_symmetric_forms(action, generators, n=None):
    """Basis of symmetric S with rho(X)^T S + S rho(X) = 0, F^T S F = S.

    The rows are integer: each action matrix is cleared to L A, which
    scales its block of equations, and each generator to L F, whose block
    becomes (L F)^T S (L F) = L^2 S.
    """
    if n is None:
        n = len(action[0]) if action else len(generators[0])
    pairs = _sym_index(n)
    pos = {p: k for k, p in enumerate(pairs)}

    def sym_get(vec, i, j):
        return vec[pos[(i, j)]] if i <= j else vec[pos[(j, i)]]

    rows = []
    for a, _ in map(cleared, action):
        for i in range(n):
            for j in range(i, n):
                row = [0] * len(pairs)
                for k in range(n):
                    # (A^T S)_{ij} = sum_k A_{ki} S_{kj}; (S A)_{ij} = S_{ik} A_{kj}
                    if a[k][i] != 0:
                        row[pos[(min(k, j), max(k, j))]] += a[k][i]
                    if a[k][j] != 0:
                        row[pos[(min(i, k), max(i, k))]] += a[k][j]
                if any(x != 0 for x in row):
                    rows.append(row)
    for f, den in map(cleared, generators):
        for i in range(n):
            for j in range(i, n):
                row = [0] * len(pairs)
                for k in range(n):
                    for l in range(n):
                        c = f[k][i] * f[l][j]
                        if c != 0:
                            row[pos[(min(k, l), max(k, l))]] += c
                row[pos[(i, j)]] -= den * den
                if any(x != 0 for x in row):
                    rows.append(row)
    sols = nullspace(rows) if rows else identity(len(pairs))
    out = []
    for vec in sols:
        out.append([[sym_get(vec, i, j) for j in range(n)] for i in range(n)])
    return out


def invariant_kforms(m: IsotropyModule, k):
    """Exact basis of the invariant k-forms on V, a fresh list per call.

    The basis is computed once per module and k and kept on the module.
    """
    cache = m._invariant_kforms
    if k not in cache:
        cache[k] = tuple(_invariant_kform_basis(m, k))
    return list(cache[k])


def _invariant_kform_basis(m, k):
    """The joint kernel of integer systems: each action matrix cleared to
    L A gives L times its Lambda^k matrix, and each generator cleared to
    L F gives P - L^k 1 for the pullback matrix P of L F."""
    n = m.dimV
    if k == 0:
        return [KForm.make(n, 0, [((), 1)])]
    mats = [lambda_k_action_matrix(cleared(a)[0], k, n) for a in m.action]
    for _, f in m.generators:
        f, den = cleared(f)
        p = lambda_k_pullback_matrix(f, k, n)
        for r, row in enumerate(p):
            row[r] -= den ** k
        mats.append(p)
    if not mats:
        return [KForm.basis(n, *idx)
                for idx in combinations(range(1, n + 1), k)]
    vecs = intersect_nullspaces(mats)
    return [KForm.from_coefficient_vector(n, k, v) for v in vecs]


def invariant_3forms(m: IsotropyModule):
    """Exact basis of the invariant 3-forms on V (as KForms, dim 7)."""
    if m.dimV != 7:
        raise ValueError("invariant 3-forms require dim V = 7")
    return invariant_kforms(m, 3)


def invariant_dims(m: IsotropyModule) -> InvariantDims:
    """(d1, d2, d3): invariant vectors, symmetric forms, 3-forms; exact.

    d3 comes from the direct Lambda^3 fixed-space computation; the identity
    d3 = d1 + d2 is a theorem only in the presence of a definite invariant
    form and is cross-checked by callers, not assumed here.
    """
    kill = list(m.action)
    for _, f in m.generators:
        kill.append(mat_sub(mat(f), identity(m.dimV)))
    d1 = len(intersect_nullspaces(kill)) if kill else m.dimV
    d2 = len(_invariant_symmetric_forms(m.action, [f for _, f in m.generators],
                                        n=m.dimV)
             if m.generators else m._action_symmetric_forms)
    d3 = len(invariant_3forms(m)) if m.dimV == 7 else None
    return InvariantDims(d1=d1, d2=d2, d3=d3)


# ---------------------------------------------------------------------------
# irreducible decomposition dimensions
# ---------------------------------------------------------------------------

#: splitter draws before `irreducible_dims` gives up with an AssertionError
_SPLITTER_DRAWS = 40


def _draw_splitter(forms, ginv, rng):
    """G^-1 times a random integer combination of the invariant symmetric
    forms, an integer matrix: `ginv` is G^-1 cleared to integers, and the
    scale keeps eigenspaces and commutant."""
    coeffs = [rng.randint(-9, 9) for _ in forms]
    n = len(ginv)
    s = [[sum(cf * f[i][j] for cf, f in zip(coeffs, forms)) for j in range(n)]
         for i in range(n)]
    return mat_mul(ginv, s)


def irreducible_dims(m: IsotropyModule, seed=0):
    """Multiset of real-irreducible dimensions of the h-action on V; certified.

    Finite generators are ignored.  For the invariant definite gram G, X is
    G-self-adjoint and commutes with the action exactly when S = G X is an
    invariant symmetric form, so the self-adjoint commutant is G^-1 times
    `_invariant_symmetric_forms`; that invariance, A^T G + G A = 0 for
    every action matrix, is checked exactly first (AssertionError
    otherwise).  One form proves V irreducible.  Otherwise V is split by one
    commutant element C = G^-1 S, S a random integer combination of the
    forms: self-adjoint for a definite form, C is diagonalizable with real
    eigenvalues, and its eigenspaces E_j are invariant.  A generic C has
    distinct eigenvalues on the trivial isotypic part too, so the same draw
    splits it into 1s.  The dimensions of the E_j, the root multiplicities
    of charpoly(C), are read by squarefree counting (`root_multiplicities`),
    with no factoring.  The split is accepted only when the commutant
    elements that also commute with C, the G^-1 S' with S' C symmetric, have
    dimension equal to the number of eigenvalues: that dimension is the sum
    over j of dim A_sa(E_j) >= 1, and A_sa(E_j) is the scalars exactly when
    E_j is irreducible.  C is drawn from `random.Random(seed)`; if no draw
    in `_SPLITTER_DRAWS` certifies, an AssertionError is raised, never a
    coarser answer.  The result is computed once per module and seed and
    kept on the module; a fresh list is returned per call.
    """
    cache = m._irreducible_dims
    if seed not in cache:
        cache[seed] = tuple(_irreducible_dims(m, seed))
    return list(cache[seed])


def _irreducible_dims(m, seed):
    n = m.dimV
    gram, _ = cleared(m.gram)
    for a, _ in map(cleared, m.action):
        if any(x + y for r, s in zip(mat_mul(transpose(a), gram),
                                     mat_mul(gram, a))
               for x, y in zip(r, s)):
            raise AssertionError("gram is not invariant under the action")
    forms = [cleared(s)[0] for s in m._action_symmetric_forms]
    dims = ([n] if len(forms) == 1 else
            _certified_split(forms, cleared(inverse(m.gram))[0], seed))
    if sum(dims) != n:
        raise AssertionError("irreducible dimensions do not add up")
    return dims


def _certified_split(forms, ginv, seed):
    """The sorted eigenspace dimensions of the first certified splitter."""
    n = len(ginv)
    rng = random.Random(seed)
    for _ in range(_SPLITTER_DRAWS):
        c = _draw_splitter(forms, ginv, rng)
        mults = root_multiplicities(charpoly(c))
        # G^-1 S' commutes with C exactly when S' C is symmetric
        products = [mat_mul(f, c) for f in forms]
        rows = [[p[i][j] - p[j][i] for p in products]
                for i in range(n) for j in range(i + 1, n)]
        if len(forms) - rank(rows) == len(mults):
            return mults
    raise AssertionError(
        f"no certified split in {_SPLITTER_DRAWS} splitter draws")


# ---------------------------------------------------------------------------
# definite / indefinite search over the invariant family
# ---------------------------------------------------------------------------

def schur_exclusion(m: IsotropyModule):
    """Certificate that no invariant 3-form is indefinite, or None.

    For an invariant t, B(t) is h-invariant (the action is gram-skew, so
    traceless, and Lambda^7 is trivial), so S = gram^-1 B(t) commutes with
    the action and is gram-self-adjoint.  Its positive eigenspace is then
    invariant, a sum of irreducibles, and B(t) has signature (p, 7 - p)
    with p a sub-multiset sum of the certified `irreducible_dims`.  An
    indefinite t needs p = 3 or 4.  The argument needs a definite gram.
    """
    if not _definite_check(m.gram):
        return None
    dims = irreducible_dims(m)
    sums = {0}
    for k in dims:
        sums |= {s + k for s in sums}
    if sums & {3, 4}:
        return None
    return {"kind": "schur", "irreducible_dims": dims}


def invariant_form_types(m: IsotropyModule, config: ScanConfig = None):
    """Scan the invariant 3-form family of m for definite and indefinite
    members: `scan_family` on its primitive integer basis vectors, with the
    Schur obstruction of m, tried only while the indefinite class is open.
    Returns the scan's report dict.
    """
    return scan_family([primitive_int_vector(f.coefficient_vector())
                        for f in invariant_3forms(m)], config,
                       exclude_indefinite=lambda: schur_exclusion(m))
