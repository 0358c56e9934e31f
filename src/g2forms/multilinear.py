"""Exact exterior algebra on R^n for small n (n <= 8 in practice).

A k-form is stored sparsely as a map from strictly increasing 1-based index
tuples to rational coefficients.  All operations are pure and exact; forms
are immutable and hashable (``terms`` is a read-only view).

The top exterior power is identified with scalars through the basis form
e^1 ^ ... ^ e^n, so "volume-valued" quantities are returned as the
coefficient with respect to that form.

Two tables are built once per (n, k): `_moves`, how gl(R^n) moves the
indices of a k-form (`algebra_action`, `annihilator_of_form` and
`lambda_k_action_matrix` read it), and `_expansion`, under the
one Laplace recursion `minors` that gives every k x k minor to `pullback`,
`lambda_k_pullback_matrix` and the exact dual of `stable_forms`.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from types import MappingProxyType

from .linalg import ZERO, cleared, frac, kernel


def sort_index(idx):
    """Sort an index tuple, returning (tuple, sign); sign 0 on repeats.

    One O(L log L) sort; the sign is the parity of the sorting permutation,
    one swap per position put in place.
    """
    order = sorted(range(len(idx)), key=idx.__getitem__)
    key = tuple([idx[i] for i in order])
    if len(set(key)) < len(key):
        return key, 0
    sign = 1
    for i in range(len(order)):
        while order[i] != i:
            j = order[i]
            order[i], order[j] = order[j], j
            sign = -sign
    return key, sign


@dataclass(frozen=True)
class KForm:
    """Alternating k-form with exact rational coefficients.

    No zero coefficient is ever stored: the constructor drops every zero
    value of the dict it adopts, so a form is zero exactly when `terms` is
    empty, and equal forms have equal `terms`.
    """

    dim: int
    degree: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        # the dict handed in becomes the form's own; callers build it fresh
        terms = self.terms
        for idx in [idx for idx, c in terms.items() if c == 0]:
            del terms[idx]
        object.__setattr__(self, "terms", MappingProxyType(terms))
        if self.degree < 0 or (self.degree > self.dim and self.terms):
            # the zero form of degree > dim is tolerated as a wedge result
            raise ValueError(f"degree {self.degree} out of range for dim {self.dim}")
        for idx in self.terms:
            if len(idx) != self.degree:
                raise ValueError(f"index tuple {idx} has wrong length")
            if any(not (1 <= i <= self.dim) for i in idx):
                raise ValueError(f"index out of range in {idx}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index tuple {idx} not strictly increasing")

    @staticmethod
    def make(dim, degree, items=()):
        """Build a form from (index_tuple, coefficient) pairs.

        Tuples may come in any order; they are sorted with sign and repeated
        indices drop out.
        """
        terms = {}
        for idx, c in items:
            key, sign = sort_index(idx)
            if sign == 0:
                continue
            terms[key] = terms.get(key, ZERO) + frac(c) * sign
        return KForm(dim, degree, terms)

    @staticmethod
    def zero(dim, degree):
        return KForm(dim, degree, {})

    @staticmethod
    def basis(dim, *idx):
        """The basis form e^{i1} ^ ... ^ e^{ik} (w^{i1...ik})."""
        return KForm.make(dim, len(idx), [(tuple(idx), 1)])

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check_match(other)
        terms = self.terms.copy()
        for k, v in other.terms.items():
            terms[k] = terms.get(k, ZERO) + v
        return KForm(self.dim, self.degree, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, c):
        c = frac(c)
        return KForm(self.dim, self.degree, {k: c * v for k, v in self.terms.items()})

    __mul__ = __rmul__

    def _check_match(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("form dimension/degree mismatch")

    def __eq__(self, other):
        return (isinstance(other, KForm) and self.dim == other.dim
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.terms.items())))

    def __reduce__(self):
        # the read-only view does not pickle; rebuild from a plain dict
        return KForm, (self.dim, self.degree, self.terms.copy())

    def dot(self, other):
        """Coefficient dot product in the sorted-tuple basis."""
        self._check_match(other)
        small, big = (self.terms, other.terms)
        if len(big) < len(small):
            small, big = big, small
        return sum(c * big.get(k, ZERO) for k, c in small.items())

    def coefficient_vector(self):
        """Dense coefficient vector over the sorted k-subset basis."""
        return [self.terms.get(idx, ZERO)
                for idx in combinations(range(1, self.dim + 1), self.degree)]

    @staticmethod
    def from_coefficient_vector(dim, degree, vec):
        idxs = list(combinations(range(1, dim + 1), degree))
        if len(vec) != len(idxs):
            raise ValueError("coefficient vector has wrong length")
        return KForm(dim, degree,
                     {idx: frac(c) for idx, c in zip(idxs, vec) if c})


def complement(idx, dim):
    """(J, sign): J the sorted complement of idx in 1..dim, and
    e^idx ^ e^J = sign e^{1..dim}."""
    rest = tuple(i for i in range(1, dim + 1) if i not in idx)
    return rest, sort_index(idx + rest)[1]


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; returns the zero form when the degree exceeds n."""
    if a.dim != b.dim:
        raise ValueError("wedge: dimension mismatch")
    deg = a.degree + b.degree
    if deg > a.dim:
        return KForm.zero(a.dim, deg)
    out = {}
    for ia, ca in a.terms.items():
        sa = set(ia)
        for ib, cb in b.terms.items():
            if sa & set(ib):
                continue
            key, sign = sort_index(ia + ib)
            out[key] = out.get(key, ZERO) + ca * cb * sign
    return KForm(a.dim, deg, out)


def interior(v, a: KForm) -> KForm:
    """Interior product v ⌟ a for a coordinate vector v (length = dim)."""
    if len(v) != a.dim:
        raise ValueError("interior: dimension mismatch")
    if a.degree == 0:
        raise ValueError("interior product of a 0-form")
    out = {}
    for idx, c in a.terms.items():
        for p, i in enumerate(idx):
            vi = v[i - 1]
            if vi == 0:
                continue
            key = idx[:p] + idx[p + 1:]
            contrib = c * frac(vi) * (1 if p % 2 == 0 else -1)
            out[key] = out.get(key, ZERO) + contrib
    return KForm(a.dim, a.degree - 1, out)


def basis_vector(dim, i):
    return [Fraction(1) if j == i - 1 else Fraction(0) for j in range(dim)]


@cache
def _expansion(n, k):
    """Per column c of range(n), the (K, J) with J = K + {c} a k-subset,
    as positions in the sorted subset orders, split by the sign (-1)^p of
    the first-row Laplace expansion, p the place of c in J."""
    pos = {K: q for q, K in enumerate(combinations(range(n), k - 1))}
    table = [([], []) for _ in range(n)]
    for p, J in enumerate(combinations(range(n), k)):
        for s, c in enumerate(J):
            table[c][s % 2].append((pos[J[:s] + J[s + 1:]], p))
    return tuple((tuple(even), tuple(odd)) for even, odd in table)


def minors(m, weights, k):
    """Weighted k x k minors of a square matrix m.

    `weights` maps sorted 0-based k-tuples I to w_I; the result is the list
    of sum_I w_I det m[I, J] over the sorted k-subsets J, in order.  The
    rows w_I m[I[0]] of the I that share a tail T = I[1:] are summed, and
    the sum is expanded once along the first row (`_expansion`) over the
    (k - 1)-minors of T.  An int m with int weights gives ints.
    """
    n = len(m)
    if k == 0:
        return [sum(weights.values())]
    heads = {}
    for I, w in weights.items():
        heads[I[1:]] = [a + w * x for a, x in
                        zip(heads.get(I[1:], [0] * n), m[I[0]])]
    if k == 1:
        return heads.get((), [0] * n)
    out = [0] * math.comb(n, k)
    for T, row in heads.items():
        sub = minors(m, {T: 1}, k - 1)
        for x, (even, odd) in zip(row, _expansion(n, k)):
            if x:
                for q, p in even:
                    out[p] += x * sub[q]
                for q, p in odd:
                    out[p] -= x * sub[q]
    return out


def pullback(m, a: KForm) -> KForm:
    """Pullback along an int or Fraction map m: (m* a)(v...) = a(m v...).

    The coefficient on e^J is sum_I a_I det m[I, J].  Integer boundary: the
    map is cleared to the integer matrix L m and the form to the integer
    form D a, its integer coefficients weigh the `minors` of L m, and each
    output coefficient leaves as one Fraction total / (L^k D).
    """
    n, k = a.dim, a.degree
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError("pullback: map shape mismatch")
    if k == 0:
        return a
    im, lm = cleared(m)
    (coeffs,), da = cleared([list(a.terms.values())])
    weights = {tuple(i - 1 for i in idx): c
               for idx, c in zip(a.terms, coeffs)}
    den = lm ** k * da
    return KForm(n, k, {J: Fraction(t, den) for J, t in zip(
        combinations(range(1, n + 1), k), minors(im, weights, k)) if t})


@cache
def _moves(dim, k):
    """The index moves of gl(R^dim) on Lambda^k, keyed by the sorted
    1-based k-subset I: the tuples (i, j, J, sign), i and j 0-based, with
    e^J = sign (e^I with index i + 1 replaced by j + 1), so the unit matrix
    E_ij sends e^I to -sign e^J.  Moves onto a repeated index are left
    out; within I they run by slot, then by j.
    """
    table = {}
    for idx in combinations(range(1, dim + 1), k):
        moves = []
        for p, i in enumerate(idx):
            for j in range(dim):
                key, sign = sort_index(idx[:p] + (j + 1,) + idx[p + 1:])
                if sign:
                    moves.append((i - 1, j, key, sign))
        table[idx] = tuple(moves)
    return table


def algebra_action(m, a: KForm) -> KForm:
    """Infinitesimal action (m . a)(v...) = -sum_i a(v1, ..., m v_i, ..., vk).

    This is the derivative at t = 0 of pullback(exp(-t m), a); annihilators of
    a form computed with it are the stabilizer subalgebras.  Each term
    c e^I of a adds -c m[i][j] sign to the coefficient of e^J for every
    move (i, j, J, sign) of I in `_moves`.
    """
    n = a.dim
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError("algebra_action: map shape mismatch")
    moves = _moves(n, a.degree)
    out = {}
    for idx, c in a.terms.items():
        for i, j, key, sign in moves[idx]:
            mij = m[i][j]
            if mij == 0:
                continue
            out[key] = out.get(key, ZERO) - c * frac(mij) * sign
    return KForm(n, a.degree, out)


def annihilator_of_form(*forms: KForm):
    """Basis of {A in gl(R^n) : algebra_action(A, t) = 0 for all t}, exact.

    The condition is linear in the n^2 entries of A.  Each form is cleared
    to integers, and each of its terms c e^I adds -c sign to the row of e^J
    in the column n i + j of A[i][j], for every move (i, j, J, sign) of I
    in `_moves`, the table `algebra_action` reads.  One
    `linalg.kernel` solves the sparse rows of all the forms.
    """
    n = forms[0].dim
    rows = []
    for t in forms:
        (coeffs,), _ = cleared([list(t.terms.values())])
        moves = _moves(n, t.degree)
        out = {}
        for I, c in zip(t.terms, coeffs):
            for i, j, J, sign in moves[I]:
                row = out.setdefault(J, {})
                row[n * i + j] = row.get(n * i + j, 0) - c * sign
        rows.extend(out.values())
    basis = kernel(rows, n * n)
    return [[[v[n * r + c] for c in range(n)] for r in range(n)]
            for v in basis]


def lambda_k_action_matrix(a, k):
    """Sparse rows of the infinitesimal action of a on Lambda^k coefficients.

    Column I is algebra_action(a, e^I): each move (i, j, J, sign) of I in
    `_moves` with a[i][j] != 0 adds -sign a[i][j] to entry (J, I).  Row J
    is a dict {I: entry} of its nonzero entries, rows and columns numbered
    in the sorted order of the k-subsets of 1..len(a).  The entries keep
    the arithmetic of a: an int matrix gives int entries.
    """
    moves = _moves(len(a), k)
    pos = {idx: r for r, idx in enumerate(moves)}
    out = [Counter() for _ in pos]
    for c, column in enumerate(moves.values()):
        for i, j, key, sign in column:
            x = a[i][j]
            if x:
                out[pos[key]][c] -= sign * x
    return [{c: x for c, x in row.items() if x} for row in out]


def lambda_k_pullback_matrix(f, k):
    """Matrix of the pullback along f on Lambda^k coefficients.

    Column I is pullback(f, e^I), so entry (J, I) is the minor det f[I, J]
    (rows I, columns J).  The minors are taken on the cleared integer map
    L f and leave as one Fraction det / L^k each; an integral f (L = 1)
    gives an int matrix.
    """
    im, den = cleared(f)
    scale = den ** k
    cols = [minors(im, {I: 1}, k) for I in combinations(range(len(f)), k)]
    return [list(row) if scale == 1 else [Fraction(d, scale) for d in row]
            for row in zip(*cols)]


def form_to_json(a: KForm) -> dict:
    """JSON object for a form: exact rational coefficient strings."""
    return {
        "dim": a.dim,
        "degree": a.degree,
        "terms": [{"idx": list(idx), "c": str(a.terms[idx])}
                  for idx in sorted(a.terms)],
    }


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class LongInteger(str):
    """The text of a JSON integer of more digits than int() converts."""


def parse_json_int(text):
    """`json.load`'s parse_int for a form file: the int, or a `LongInteger`
    that `form_from_json` refuses by its digit count."""
    try:
        return int(text)
    except ValueError:
        return LongInteger(text)


def _shown(value):
    """A decoded JSON value as a refusal names it: an integer of at most 20
    digits as it is, any other value by its JSON type, with a string's
    length or an integer's digit count; never a long value itself."""
    if type(value) in (int, LongInteger):
        digits = len(str(value).lstrip("-"))
        return str(value) if digits <= 20 else f"an integer of {digits} digits"
    if isinstance(value, str):
        return f"a string of {len(value)} characters"
    return {bool: "a boolean", float: "a number", list: "a list",
            dict: "an object"}.get(type(value), "null")


def _json_int(value, what):
    """A JSON integer; a bool, float, string or `LongInteger` is refused."""
    if type(value) is LongInteger:
        raise ValueError(f"{what} has too many digits, got {_shown(value)}")
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {_shown(value)}")
    return value


def form_from_json(obj) -> KForm:
    """Read the JSON of `form_to_json` back, strictly.

    `dim` and `degree` are JSON integers.  Each term's `idx` is a JSON list
    of exactly `degree` integers in 1..dim, and no index set appears in two
    terms; a refusal names the field, the term, the position of a bad
    index and the JSON type of a bad value, never a long value or the list.
    `c` is a string of an integer or of p/q ("5", "-2/3", q != 0) or a JSON
    integer, never a float, a bool or a decimal or exponent string
    ("1e9999999" would take seconds to expand), and one of more digits
    than int() converts is refused by its length, as is a `LongInteger`
    (`parse_json_int`) anywhere.  An unsorted idx is sorted
    with the sign of its permutation (`sort_index`), and an idx with a
    repeated index is the zero term.  Anything else raises ValueError.
    """
    try:
        dim = _json_int(obj["dim"], "dim")
        degree = _json_int(obj["degree"], "degree")
        terms, first = {}, {}
        for n, t in enumerate(obj["terms"], 1):
            idx, c = t["idx"], t["c"]
            if not isinstance(idx, list):
                raise ValueError(f"term {n}: idx must be a JSON list, got "
                                 f"{_shown(idx)}")
            if len(idx) != degree:
                raise ValueError(f"term {n}: idx holds {len(idx)} indices, "
                                 f"not the degree {_shown(degree)}")
            for p, i in enumerate(idx, 1):
                if type(i) is not int or not 1 <= i <= dim:
                    why = (f"outside 1..{_shown(dim)}"
                           if type(i) in (int, LongInteger)
                           else "not a JSON integer")
                    raise ValueError(f"term {n}: index {p} of idx is "
                                     f"{_shown(i)}, {why}")
            key, sign = sort_index(idx)
            if key in terms:
                raise ValueError(f"terms {first[key]} and {n} have the same "
                                 "index set")
            first[key] = n
            if not (type(c) is int or isinstance(c, str)
                    and _RATIONAL.fullmatch(c)):
                raise ValueError(f"term {n}: c must be a string n or p/q or "
                                 f"a JSON integer, got {_shown(c)}")
            try:
                value = Fraction(c)
            except ValueError:  # more digits than int() converts
                raise ValueError(f"term {n}: c has too many digits, got "
                                 f"{_shown(c)}") from None
            # a zero term, a repeated index's among them, is dropped by KForm
            terms[key] = sign * value
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed form object: {exc}") from exc
    return KForm(dim, degree, terms)

