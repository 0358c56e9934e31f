"""Lie algebras as exact structure constants, and their reductive pairs.

A Lie algebra is its structure constants c^k_ij on a fixed ordered basis,
with the invariant inner product <X, Y> = -trace(XY).  Rational ambient
matrices only build it.  A `MatrixLieAlgebra` is a product of diagonal
blocks, a simple algebra a product of one: each block clears its basis
once to sparse integer matrices over one denominator and reads its
coordinates (through its `linalg.Basis`), structure constants and trace
form off them, the latter two once, as integer tables over one
denominator each, which a product joins.
`build_algebra` builds each classical factor once per process and shares
it.  Every later step (brackets, complements, isotropy actions) works on
coordinate vectors.  The trace form is definite on every compact
realization used here (abelian factors are realized as rotation blocks,
so the same formula covers them).  A reductive complement V of a
subalgebra h gives an isotropy module, a frozen value: the h-action
matrices on V, the V-part of the bracket, the restricted inner product, h
and V in g-coordinates, and any finite component generators.  The h and
V vectors are cleared to integer rows over one denominator, and the one
`linalg.Basis` of those rows reads, in integers, both the complement's
pair brackets and the images of h and V under a generator.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, combinations

from .isotropy import IsotropyModule
# perfbench's tracer and workloads resolve these names on liealg
from .isotropy import (ScanConfig, invariant_3forms, invariant_dims,
                       invariant_form_types, irreducible_dims)
from .linalg import (ZERO, Basis, adjugate, cleared, embed_block, frac,
                     identity, inertia, kernel, mat_mul, sparse,
                     sparse_mul, sparse_vector, transpose, zeros)


def _sparse_commutator(a, b):
    ab, ba = sparse_mul(a, b), sparse_mul(b, a)
    out = {rc: ab.get(rc, 0) - ba.get(rc, 0) for rc in ab.keys() | ba.keys()}
    return {rc: v for rc, v in out.items() if v}


@dataclass(frozen=True)
class _Block:
    """A named basis of n x n rational matrices, as tuples, cleared once
    to sparse integer matrices B_k = L b_k; its coordinate reader and its
    tables are built on first read and kept."""

    name: str
    basis: tuple

    @cached_property
    def ints(self):
        # (B_k, L)
        n = len(self.basis[0])
        flat, den = cleared([[x for row in b for x in row]
                             for b in self.basis])
        return [{divmod(i, n): v for i, v in enumerate(row) if v}
                for row in flat], den

    @cached_property
    def reader(self):
        # the `linalg.Basis` of the B_k: y = read(x) has sum_k y_k B_k = d x,
        # so x = sum_k y_k b_k L / d
        found = Basis.from_echelon(self.ints[0])
        if found is None:
            raise ValueError(f"{self.name}: basis is linearly dependent")
        return found

    @cached_property
    def structure(self):
        # (T, D): [b_i, b_j] = sum_k c_k b_k / D over the pairs (k, c_k)
        # of T[i][j], c_k != 0; [B_i, B_j] = L^2 [b_i, b_j] is read as
        # sum_k y_k B_k / d, so D = d L
        ints, den = self.ints
        table = [[()] * len(ints) for _ in ints]
        for i, j in combinations(range(len(ints)), 2):
            y = self.reader.read(_sparse_commutator(ints[i], ints[j]))
            if y is None:
                raise ValueError(
                    f"{self.name}: bracket [b{i}, b{j}] leaves the span")
            table[i][j] = tuple((k, c) for k, c in enumerate(y) if c)
            table[j][i] = tuple((k, -c) for k, c in table[i][j])
        return table, self.reader.d * den

    @cached_property
    def trace_form(self):
        # (G, L^2): G[i][j] = -tr(B_i B_j) = L^2 <b_i, b_j>
        ints, den = self.ints
        g = [[0] * len(ints) for _ in ints]
        for i, x in enumerate(ints):
            for j in range(i, len(ints)):
                y = ints[j]
                g[i][j] = g[j][i] = -sum(v * y.get((c, r), 0)
                                         for (r, c), v in x.items())
        return g, den * den


def _join(tables, zero, move):
    """The block-diagonal join of square tables (T_a, D_a) over D = lcm
    D_a: each entry x of T_a as move(x, at, D / D_a) at T_a's offset at."""
    den = math.lcm(*(d for _, d in tables))
    n = sum(len(t) for t, _ in tables)
    out = [[zero] * n for _ in range(n)]
    at = 0
    for t, d in tables:
        for i, row in enumerate(t, at):
            out[i][at:at + len(t)] = [move(x, at, den // d) for x in row]
        at += len(t)
    return out, den


@dataclass(frozen=True)
class MatrixLieAlgebra:
    """A Lie algebra of block-diagonal rational matrices: the bases of its
    blocks (`_Block`), in order.  A simple algebra is one block
    (`from_basis`); a product holds its factors' blocks, tables and all.
    `coords` reads each diagonal block with its block's reader.  The
    structure constants and the trace form are the blocks' integer tables
    joined once; `structure_constants` and `trace_form` build a fresh
    Fraction view on each call.
    """

    name: str
    blocks: tuple

    @classmethod
    def from_basis(cls, name, basis):
        """The algebra of one block spanned by the matrices `basis`."""
        return cls(name, (_Block(name, tuple(tuple(map(tuple, b))
                                             for b in basis)),))

    @cached_property
    def _starts(self):
        # the first row of each block, then the size
        return [*accumulate((len(b.basis[0]) for b in self.blocks), initial=0)]

    @property
    def dim(self):
        return sum(len(b.basis) for b in self.blocks)

    @property
    def size(self):
        return self._starts[-1]

    @cached_property
    def basis(self):
        """The block-embedded basis matrices, as tuples of tuples."""
        return tuple(tuple(map(tuple, embed_block(b, self.size, at)))
                     for blk, at in zip(self.blocks, self._starts)
                     for b in blk.basis)

    def coords(self, x):
        """Coordinates of an ambient matrix in the basis; None if outside."""
        xi, m = cleared(x)
        return self._sparse_coords(sparse(xi), m)

    def _sparse_coords(self, x, m):
        """Coordinates of x / m, x a sparse integer matrix {(r, c): v}; None
        if x has an entry off the diagonal blocks or one outside its span."""
        out, inside = [], 0
        for blk, at, end in zip(self.blocks, self._starts, self._starts[1:]):
            part = {(r - at, c - at): v for (r, c), v in x.items()
                    if at <= r < end and at <= c < end}
            inside += len(part)
            y = blk.reader.read(part)
            if y is None:
                return None
            den, q = blk.ints[1], blk.reader.d * m
            out += [Fraction(den * v, q) for v in y]
        return out if inside == len(x) else None

    @cached_property
    def _structure(self):
        # (T, D): the blocks' tables joined; two blocks commute
        return _join([b.structure for b in self.blocks], (),
                     lambda terms, at, s: tuple((k + at, s * c)
                                                for k, c in terms))

    def structure_constants(self):
        """c[i][j] = coordinates of [b_i, b_j]; raises if not closed.

        A fresh Fraction view of the integer table on each call.
        """
        table, den = self._structure
        out = [[[Fraction(0)] * self.dim for _ in row] for row in table]
        for row, terms_row in zip(out, table):
            for c, terms in zip(row, terms_row):
                for k, v in terms:
                    c[k] = Fraction(v, den)
        return out

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
        # (G, L^2): the blocks' G joined; two blocks are orthogonal
        return _join([b.trace_form for b in self.blocks], 0,
                     lambda v, at, s: s * v)

    def trace_form(self):
        """Gram matrix of <X, Y> = -tr(XY) on the basis, as Fractions: a
        fresh view of the integer table on each call."""
        g, den = self._int_trace_form
        return [[Fraction(v, den) for v in row] for row in g]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def creal(a, b):
    """Real 2n x 2n expansion of the complex matrix a + i b."""
    n = len(a)
    out = zeros(2 * n)
    for p in range(n):
        for q in range(n):
            x, y = frac(a[p][q]), frac(b[p][q])
            out[2 * p][2 * q] = x
            out[2 * p][2 * q + 1] = -y
            out[2 * p + 1][2 * q] = y
            out[2 * p + 1][2 * q + 1] = x
    return out


def so_basis(n):
    """The units E_ij - E_ji of so(n), i < j, in lexicographic order."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            m = zeros(n)
            m[i][j] = Fraction(1)
            m[j][i] = Fraction(-1)
            out.append(m)
    return out


def _symmetric(a):
    """E_ij + E_ji from the so(n) unit E_ij - E_ji."""
    return [[abs(x) for x in row] for row in a]


def su_basis(n):
    """Real 2n x 2n basis of su(n): off-diagonal pairs, then diagonal tori."""
    z = zeros(n)
    out = []
    for a in so_basis(n):
        out += [creal(a, z), creal(z, _symmetric(a))]
    return out + [diag_torus_su(n, [0] * p + [1, -1] + [0] * (n - p - 2))
                  for p in range(n - 1)]


def u_basis(n):
    """u(n) = su(n) + center, realized over R."""
    return su_basis(n) + [creal(zeros(n), identity(n))]


def diag_torus_su(n, weights):
    """i * diag(weights) in su(n)/u(n), real 2n x 2n."""
    b = zeros(n)
    for p, w in enumerate(weights):
        b[p][p] = frac(w)
    return creal(zeros(n), b)


def sp_matrix(a_re, a_im, b_re, b_im):
    """Real 4n x 4n element [[A, B], [-conj B, conj A]] of sp(n).

    A = a_re + i a_im and B = b_re + i b_im are n x n; the 2n x 2n complex
    matrix is assembled, then expanded by `creal`.
    """
    def neg(m):
        return [[-x for x in row] for row in m]

    def join(grid):
        # the matrix [[P, Q], [R, S]] of its four n x n blocks
        return [[*p, *q] for left, right in grid for p, q in zip(left, right)]

    return creal(join([[a_re, b_re], [neg(b_re), a_re]]),
                 join([[a_im, b_im], [b_im, neg(a_im)]]))


def sp_basis(n):
    """Real 4n x 4n basis of sp(n) in the form [[A, B], [-conj B, conj A]].

    A runs over u(n), B over complex symmetric matrices; dim = n(2n + 1).
    """
    out = []
    z = zeros(n)
    for p in range(n):
        d = zeros(n)
        d[p][p] = Fraction(1)
        # i a_p diagonal, B = E_pp, B = i E_pp
        out += [sp_matrix(z, d, z, z), sp_matrix(z, z, d, z),
                sp_matrix(z, z, z, d)]
    for a in so_basis(n):
        b = _symmetric(a)
        out += [sp_matrix(a, z, z, z), sp_matrix(z, b, z, z),
                sp_matrix(z, z, b, z), sp_matrix(z, z, z, b)]
    return out


def rotation_block():
    return [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]


def torus_basis(k):
    """R^k as k commuting rotation blocks (2k x 2k); -tr form is definite."""
    return [embed_block(rotation_block(), 2 * k, 2 * p) for p in range(k)]


def product_algebra(name, factors):
    """Block-diagonal product: the blocks of the factors, in order, so the
    basis order follows the factor order."""
    return MatrixLieAlgebra(name, tuple(b for f in factors for b in f.blocks))


#: the classical algebras by name prefix: (smallest size, largest size,
#: basis builder); u(1) is the single rotation block of t(1)
_CLASSICAL = {
    "so": (2, 7, so_basis),
    "su": (2, 4, su_basis),
    "u": (1, 4, u_basis),
    "sp": (1, 2, sp_basis),
    "t": (1, 7, torus_basis),
}


@cache
def build_algebra(name: str) -> MatrixLieAlgebra:
    """Classical algebras by name: so(n), su(n), sp(n), u(n), t(k), and
    their sums such as su(3)+t(2), the block-diagonal `product_algebra` of
    the factors in order.  Built once per process for each name, as a
    frozen value that every caller shares, factors included.
    """
    name = name.strip()
    if "+" in name:
        return product_algebra(name, [build_algebra(factor)
                                      for factor in name.split("+")])
    prefix, _, size = name.partition("(")
    if prefix not in _CLASSICAL or not name.endswith(")"):
        raise ValueError(f"unknown algebra name: {name!r}")
    low, high, basis = _CLASSICAL[prefix]
    n = int(size[:-1])
    if not low <= n <= high:
        raise ValueError(f"unsupported size in {name}")
    return MatrixLieAlgebra.from_basis(name, basis(n))


# ---------------------------------------------------------------------------
# reductive pairs
# ---------------------------------------------------------------------------

def _split_reader(rows):
    """(reader, W, s): the rows u_k of h + V cleared to W = s u over one
    denominator s, and the `linalg.Basis` of W; raises if dependent."""
    ws, s = cleared(rows)
    reader = Basis.from_echelon(map(sparse_vector, ws))
    if reader is None:
        raise ValueError("subalgebra basis is linearly dependent")
    return reader, ws, s


def _over(v, q):
    """The integer vector v divided by q, as Fractions."""
    return [Fraction(x, q) if x else ZERO for x in v]


def reductive_complement(g: MatrixLieAlgebra, h_elements,
                         label="") -> IsotropyModule:
    """Split g = h + V orthogonally for -tr(XY) and assemble the module.

    Only the coordinates of the h elements are read from ambient matrices;
    every bracket comes from the integer structure constants.  The h and V
    vectors u_k are cleared to integer rows w_k = s u_k over one s, and the
    table bracket D [w_i, w_j] of every pair is read by the `linalg.Basis`
    of the w_k in integers over one q = d D s.  Raises when the trace form
    is not positive definite (the realization is then not compact), h is
    linearly dependent or not a subalgebra; [h, V] subset V and the
    representation property of the integer action are asserted exactly.
    """
    gram_g, gden = g._int_trace_form
    if inertia(gram_g)[0] != g.dim:
        raise ValueError(f"{g.name}: invariant trace form is not definite")
    hmat = [g.coords(x) for x in h_elements]
    if any(c is None for c in hmat):
        raise ValueError("subalgebra element outside the ambient algebra")
    hdim = len(hmat)
    # V = trace-form orthogonal complement of h
    vvecs = kernel(map(sparse_vector, mat_mul(cleared(hmat)[0], gram_g)),
                   g.dim)
    dimv = len(vvecs)
    reader, ws, s = _split_reader(hmat + vvecs)
    # read(D [w_i, w_j]) = y has sum_k y_k w_k = d D s^2 [u_i, u_j], so the
    # (h | V) components of [u_i, u_j] are y / q
    q = reader.d * g._structure[1] * s
    split = {(i, j): reader.read(sparse_vector(g._table_bracket(ws[i], ws[j])))
             for i, j in combinations(range(hdim + dimv), 2)}
    h_brackets = {ij: y[:hdim] for ij, y in split.items() if ij[1] < hdim}
    if any(any(split[ij][hdim:]) for ij in h_brackets):
        raise ValueError("h is not closed under the bracket")
    cols = [[split[i, j] for j in range(hdim, hdim + dimv)]
            for i in range(hdim)]
    if any(any(y[:hdim]) for col in cols for y in col):
        raise AssertionError("[h, V] escaped V; trace form broken?")
    action = [transpose([y[hdim:] for y in col]) for col in cols]
    _check_rep_property(action, h_brackets)
    # the restricted gram W G W^T / (L^2 s^2), W the rows w_k of V
    wgw = mat_mul(mat_mul(ws[hdim:], gram_g), transpose(ws[hdim:]))
    return IsotropyModule(
        label=label, dimV=dimv,
        action=[[_over(row, q) for row in a] for a in action],
        gram=[_over(row, gden * s * s) for row in wgw],
        brackets={(i, j): _over(split[hdim + i, hdim + j][hdim:], q)
                  for i, j in combinations(range(dimv), 2)},
        h_coords=hmat, V_coords=vvecs, ambient=g)


def generator_v_matrix(g, hmat, vvecs, fmat):
    """V-matrix of Ad_F for an ambient group element F; exact, validated.

    F exists only as an ambient matrix, so Ad_F is read off the conjugated
    basis matrices: F is cleared to an integer matrix F', whose adjugate
    A = det(F') F'^-1 replaces the inverse, and each F' B_k A, B_k = L b_k
    the integer basis of b_k's block, is read in coordinates and divided
    by L det(F').  The images W Ad_F of the h and V rows, cleared to W over
    one denominator, are integer combinations of those coordinates, read
    by the one `linalg.Basis` of W: an h row must have no V part and a V
    row no h part.
    """
    f, _ = cleared(fmat)
    fdet, adj = adjugate(f)
    if adj is None:
        raise ValueError("matrix is singular")
    f, finv = sparse(f), sparse(adj)
    imgs = []
    for blk, at in zip(g.blocks, g._starts):
        ints, bden = blk.ints
        for b in ints:
            b = {(r + at, c + at): v for (r, c), v in b.items()}
            y = g._sparse_coords(sparse_mul(sparse_mul(f, b), finv),
                                 bden * fdet)
            if y is None:
                raise ValueError("generator does not normalize the algebra")
            imgs.append(y)
    # Ad_F b_k = sum_l imgs[k][l] b_l / den
    imgs, den = cleared(imgs)
    # u_j = w_j / s: read(w_j imgs) = y has sum_k y_k w_k = d w_j imgs, so
    # Ad_F u_j = sum_k y_k u_k / (d den)
    hdim = len(hmat)
    reader, ws, _ = _split_reader([*hmat, *vvecs])
    ys = [reader.read(sparse_vector(p)) for p in mat_mul(ws, imgs)]
    if any(y is None or any(y[hdim:]) for y in ys[:hdim]):
        raise ValueError("generator does not normalize the subalgebra")
    if any(y is None or any(y[:hdim]) for y in ys[hdim:]):
        raise ValueError("generator does not preserve the complement")
    return transpose([_over(y[hdim:], reader.d * den) for y in ys[hdim:]])


def _check_rep_property(action, h_brackets):
    """[rho(h_i), rho(h_j)] = rho([h_i, h_j]) from each bracket's h-coords,
    as [A_i, A_j] = sum_k c_k A_k: A_k = q rho(h_k) and c the coordinates
    of [h_i, h_j] times q, in integers over one q (Fractions for q = 1)."""
    rho = [sparse(a) for a in action]
    for (i, j), coeffs in h_brackets.items():
        rhs = {}
        for c, a in zip(coeffs, rho):
            if c:
                for rc, x in a.items():
                    rhs[rc] = rhs.get(rc, 0) + c * x
        if _sparse_commutator(rho[i], rho[j]) != {rc: v for rc, v
                                                  in rhs.items() if v}:
            raise AssertionError("isotropy action violates the brackets")
