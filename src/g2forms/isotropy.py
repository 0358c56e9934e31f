"""Isotropy modules and their invariant theory.

An isotropy module is a frozen value: the h-action matrices on V, the
V-part of the bracket, the invariant inner product and any finite component
generators; `liealg.reductive_complement` assembles one from a pair (g, h),
`module_from_action` from action matrices alone.  Everything computed from
it lives here: the invariant symmetric forms and k-forms, kept on the
module once computed, the invariant dimensions, the irreducible split and
the definite/indefinite scan of its invariant 3-forms.

Everything through `invariant_dims` is exact.  `irreducible_dims` is
certified: a random self-adjoint commutant element, the gram's inverse
times an invariant symmetric form, splits V into its eigenspaces, whose
dimensions are the root multiplicities of its characteristic polynomial,
and the split is accepted only when a commutant dimension count proves
every eigenspace irreducible.  `invariant_form_types` runs the family scan
of `scan` on the invariant 3-forms, with the `SchurCertificate` on the
irreducible dimensions (`schur_exclusion`) as its exclusion of the
indefinite class.
"""

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb
from types import MappingProxyType

from .linalg import (ONE, Basis, adjugate, charpoly, cleared, inertia,
                     kernel, mat_mul, rank, root_multiplicities, transpose)
from .multilinear import (KForm, lambda_k_action_matrix,
                          lambda_k_pullback_matrix)
from .scan import SchurCertificate, ScanConfig, scan_family
from .stable_forms import primitive_int_vector


def _frozen_matrix(m):
    return tuple(tuple(row) for row in m)


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
    ambient: "MatrixLieAlgebra" = None

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
    def _irreducible(self):
        # the certified split, read by `irreducible_dims`
        return tuple(_irreducible_dims(self))

    @cached_property
    def _action_symmetric_forms(self):
        # the invariant symmetric forms of the action alone, read by
        # `irreducible_dims` and, without generators, by `invariant_dims`
        return tuple(_frozen_matrix(s) for s in
                     _invariant_symmetric_forms(self.action, [], n=self.dimV))

    def kernel_dim(self):
        """dim of {X in h : ad(X)|V = 0}, h_dim - rank; 0 when effective."""
        return self.h_dim - rank([[x for row in a for x in row]
                                  for a in self.action])


def invariant_inner_product(action):
    """The unique invariant symmetric form, positive definite.

    Negated when `inertia` reads it negative definite; a ValueError when
    the form is not unique or not definite.
    """
    forms = _invariant_symmetric_forms(action, [])
    if len(forms) != 1:
        raise ValueError("invariant inner product is not unique")
    gram = forms[0]
    p, q, _ = inertia(gram)
    if len(gram) not in (p, q):
        raise ValueError("invariant inner product is not definite")
    return gram if p else [[-x for x in row] for row in gram]


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


def _invariant_symmetric_forms(action, generators, n=None):
    """Basis of symmetric S with rho(X)^T S + S rho(X) = 0, F^T S F = S.

    The rows are integer: each action matrix is cleared to L A, which
    scales its block of equations, and each generator to L F, whose block
    becomes (L F)^T S (L F) = L^2 S.
    """
    if n is None:
        n = len(action[0]) if action else len(generators[0])
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {p: k for k, p in enumerate(pairs)}
    rows = []
    for a, _ in map(cleared, action):
        for i, j in pairs:
            row = {}
            for k in range(n):
                # (A^T S)_{ij} = sum_k A_{ki} S_{kj}; (S A)_{ij} = S_{ik} A_{kj}
                if a[k][i]:
                    p = pos[min(k, j), max(k, j)]
                    row[p] = row.get(p, 0) + a[k][i]
                if a[k][j]:
                    p = pos[min(i, k), max(i, k)]
                    row[p] = row.get(p, 0) + a[k][j]
            rows.append(row)
    for f, den in map(cleared, generators):
        for i, j in pairs:
            row = {pos[i, j]: -den * den}
            for k in range(n):
                for l in range(n):
                    c = f[k][i] * f[l][j]
                    if c:
                        p = pos[min(k, l), max(k, l)]
                        row[p] = row.get(p, 0) + c
            rows.append(row)
    sols = kernel(rows, len(pairs))
    return [[[vec[pos[min(i, j), max(i, j)]] for j in range(n)]
             for i in range(n)] for vec in sols]


def invariant_kforms(m: IsotropyModule, k):
    """Exact basis of the invariant k-forms on V, a fresh list per call.

    The basis is computed once per module and k and kept on the module.
    """
    cache = m._invariant_kforms
    if k not in cache:
        cache[k] = tuple(invariant_kform_basis(
            m.action, [f for _, f in m.generators], k, m.dimV))
    return list(cache[k])


def invariant_kform_basis(action, generators, k, n):
    """Basis of the k-forms on R^n that every action matrix annihilates
    and every generator pulls back to itself: the `kernel` of one sparse
    integer system.  Each action matrix cleared to L A gives the rows of
    L times its Lambda^k action, and each generator cleared to L F the
    rows of P - L^k 1, P the pullback matrix of L F.  With no rows, the
    kernel is the unit forms e^I, built directly."""
    if not (action or generators):
        return [KForm(n, k, {idx: ONE})
                for idx in combinations(range(1, n + 1), k)]
    rows = [row for a in action
            for row in lambda_k_action_matrix(cleared(a)[0], k)]
    for f in generators:
        f, den = cleared(f)
        for r, row in enumerate(lambda_k_pullback_matrix(f, k)):
            row[r] -= den ** k
            rows.append(dict(enumerate(row)))
    vecs = kernel(rows, comb(n, k))
    return [KForm.from_coefficient_vector(n, k, v) for v in vecs]


def basis_coordinates(basis, forms):
    """The coordinates in an invariant k-form basis of each of `forms`,
    sparse terms maps with no zero value such as `KForm.terms`; None when
    one of them is off the span.  The basis is read as the `kernel` basis
    it is, by `linalg.Basis.from_kernel`, which checks its shape (each
    form 1 at its last index, where no other is nonzero) and refuses any
    other with a ValueError: each form's coordinates are its coefficients
    there, checked by one exact recombination."""
    reader = Basis.from_kernel(f.terms for f in basis)
    out = [reader.read(terms) for terms in forms]
    return None if None in out else out


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
    d1 = m.dimV - rank([row for a in m.action for row in a] + [
        [x - (i == j) for j, x in enumerate(row)]  # the rows of F - 1
        for _, f in m.generators for i, row in enumerate(f)])
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
    forms, an integer matrix: `ginv` is the adjugate of G cleared, a nonzero
    multiple of G^-1, and the scale keeps eigenspaces and commutant."""
    coeffs = [rng.randint(-9, 9) for _ in forms]
    n = len(ginv)
    s = [[sum(cf * f[i][j] for cf, f in zip(coeffs, forms)) for j in range(n)]
         for i in range(n)]
    return mat_mul(ginv, s)


def irreducible_dims(m: IsotropyModule):
    """Multiset of real-irreducible dimensions of the h-action on V; certified.

    Finite generators are ignored.  For the invariant definite gram G, X is
    G-self-adjoint and commutes with the action exactly when S = G X is an
    invariant symmetric form, so the self-adjoint commutant is G^-1 times
    `_invariant_symmetric_forms`; that invariance, A^T G + G A = 0 for
    every action matrix, is checked exactly first (AssertionError
    otherwise).  A zero action leaves every line invariant, so V splits
    into n lines with no draw.  Any other action needs a positive or
    negative definite G (AssertionError otherwise); then one form proves V
    irreducible, and more forms split V by one commutant element
    C = G^-1 S, S a random integer combination of the forms: self-adjoint
    for a definite form, C is diagonalizable with real eigenvalues, and its
    eigenspaces E_j are invariant.  A generic C has distinct eigenvalues on
    the trivial isotypic part too, so the same draw splits it into 1s.  The
    dimensions of the E_j, the root multiplicities of charpoly(C), are read
    by squarefree counting (`root_multiplicities`), with no factoring.  The
    split is accepted only when the commutant elements that also commute
    with C, the G^-1 S' with S' C symmetric, have dimension equal to the
    number of eigenvalues: that dimension is the sum over j of
    dim A_sa(E_j) >= 1, and A_sa(E_j) is the scalars exactly when E_j is
    irreducible.  C is drawn from `random.Random(0)`; if no draw in
    `_SPLITTER_DRAWS` certifies, an AssertionError is raised, never a
    coarser answer.  The result is computed once per module and kept on the
    module; a fresh list is returned per call.
    """
    return list(m._irreducible)


def _irreducible_dims(m):
    n = m.dimV
    gram, _ = cleared(m.gram)
    for a, _ in map(cleared, m.action):
        if any(x + y for r, s in zip(mat_mul(transpose(a), gram),
                                     mat_mul(gram, a))
               for x, y in zip(r, s)):
            raise AssertionError("gram is not invariant under the action")
    if not any(x for a in m.action for row in a for x in row):
        return [1] * n
    if n not in inertia(gram)[:2]:
        raise AssertionError("gram is not definite")
    forms = [cleared(s)[0] for s in m._action_symmetric_forms]
    dims = ([n] if len(forms) == 1 else _certified_split(
        forms, adjugate(gram)[1], random.Random(0)))
    if sum(dims) != n:
        raise AssertionError("irreducible dimensions do not add up")
    return dims


def _certified_split(forms, ginv, rng):
    """The sorted eigenspace dimensions of the first certified splitter
    drawn from `rng`."""
    n = len(ginv)
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
    """The `SchurCertificate` on the certified `irreducible_dims` of m, or
    None when the gram is not +-definite or the recheck refuses the dims."""
    if m.dimV not in inertia(m.gram)[:2]:
        return None
    cert = SchurCertificate(tuple(irreducible_dims(m)))
    return cert if cert.recheck() else None


def invariant_form_types(m: IsotropyModule, config: ScanConfig = None):
    """Scan the invariant 3-form family of m for definite and indefinite
    members: `scan_family` on its primitive integer basis vectors, with the
    `schur_exclusion` of m, tried only while the indefinite class is open.
    Returns the scan's report dict.
    """
    return scan_family([primitive_int_vector(f.coefficient_vector())
                        for f in invariant_3forms(m)], config,
                       exclude_indefinite=lambda: schur_exclusion(m))
