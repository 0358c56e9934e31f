"""Invariant de Rham complex of a reductive homogeneous pair.

On invariant forms the exterior differential reduces to the algebraic
formula through the V-part of the bracket,
    (d a)(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i, X_j]_V, X_0..^i..^j..X_k),
so d(e^l) = -sum_{i<j} c^l_{ij} e^i ^ e^j extended as an antiderivation.
d^2 = 0 holds on invariant forms and is asserted, not assumed.

Ranks, kernels and every yes/no answer are exact.  Coclosedness and the
nearly parallel test read the exact `dual_ray`, a positive multiple of the
Hodge dual; only the reported lambda and residual, and the two-parameter
ray search, use the float `hodge_star` (1e-9 relative tolerance).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import identity, mat, nullspace, rank, solve, transpose
from .liealg import IsotropyModule, MatrixLieAlgebra, invariant_kforms
from .multilinear import KForm, algebra_action, pullback, sort_index
from .stable_forms import (Orbit3Class, classify3, classify_hitchin,
                           dual_ray, family_hitchin_map, hitchin_ray,
                           hodge_star)


def bare_complex(alg: MatrixLieAlgebra, label=None) -> IsotropyModule:
    """The h = 0 module of a Lie algebra: V = g, full form complex.

    Unlike `reductive_complement` this does not need a definite trace form,
    so it also accepts noncompact realizations (used for rank cross-checks);
    `gram` is the trace form, indefinite on those.
    """
    struct = alg.structure_constants()
    brackets = {(i, j): struct[i][j]
                for i in range(alg.dim) for j in range(i + 1, alg.dim)}
    return IsotropyModule(label=label or alg.name, dimV=alg.dim, action=[],
                          gram=alg.trace_form(), brackets=brackets,
                          V_coords=identity(alg.dim), ambient=alg)


def _diff_terms(terms, de1):
    """Antiderivation extension of d on a sparse terms map (any numeric type)."""
    out = {}
    for idx, c in terms.items():
        for p in range(len(idx)):
            l = idx[p]
            rest = idx[:p] + idx[p + 1:]
            s_p = 1 if p % 2 == 0 else -1
            for ij, c2 in de1[l - 1].terms.items():
                key, s = sort_index(ij + rest)
                if s == 0:
                    continue
                val = c * c2 * (s * s_p)
                acc = out.get(key, 0) + val
                if acc == 0:
                    out.pop(key, None)
                else:
                    out[key] = acc
    return out


def is_invariant(m: IsotropyModule, a: KForm) -> bool:
    """Exact invariance under the h-action and the finite generators."""
    for act in m.action:
        if not algebra_action(act, a).is_zero():
            return False
    for _, f in m.generators:
        if pullback(f, a) != a:
            return False
    return True


def ce_differential(m: IsotropyModule, a: KForm) -> KForm:
    """Exterior differential of an invariant form on V (exact; invariance
    is checked)."""
    if not is_invariant(m, a):
        raise ValueError("form is not invariant; differential undefined")
    return KForm(m.dimV, a.degree + 1, _diff_terms(a.terms, m.d_one_forms))


def cartan_3form(m: IsotropyModule) -> KForm:
    """The 3-form <X, [Y, Z]> on V, in the V-basis.

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


@dataclass
class InvariantComplex:
    """Per-degree invariant bases and exact differential matrices."""

    module: IsotropyModule
    bases: list   # bases[k] = list of KForm
    diffs: list   # diffs[k]: matrix taking degree-k coords to degree-(k+1)

    @property
    def dims(self):
        return [len(b) for b in self.bases]


def build_complex(m: IsotropyModule) -> InvariantComplex:
    """Assemble the invariant complex; asserts d^2 = 0 exactly."""
    n = m.dimV
    bases = [invariant_kforms(m, k) for k in range(n + 1)]
    diffs = []
    for k in range(n + 1):
        src = bases[k]
        tgt = bases[k + 1] if k + 1 <= n else []
        if not src or not tgt:
            for f in src:
                if not ce_differential(m, f).is_zero():
                    raise AssertionError("d of an invariant form is not invariant")
            diffs.append([[Fraction(0)] * len(src) for _ in range(len(tgt))])
            continue
        tmat = transpose(mat([f.coefficient_vector() for f in tgt]))
        cols = solve(tmat, [ce_differential(m, f).coefficient_vector()
                            for f in src])
        if cols is None:
            raise AssertionError("d of an invariant form is not invariant")
        diffs.append(transpose(cols))
    _assert_d_squared_zero(diffs)
    return InvariantComplex(module=m, bases=bases, diffs=diffs)


def _assert_d_squared_zero(diffs):
    """Exact d_{k+1} d_k = 0 for every k; the product skips zero entries."""
    for k in range(len(diffs) - 1):
        a, b = diffs[k + 1], diffs[k]
        if not a or not b or not a[0] or not b[0]:
            continue
        b_rows = [{c: x for c, x in enumerate(row) if x} for row in b]
        for row in a:
            acc = {}
            for j, x in enumerate(row):
                if x:
                    for c, y in b_rows[j].items():
                        acc[c] = acc.get(c, 0) + x * y
            if any(acc.values()):
                raise AssertionError(
                    f"d^2 != 0 between degrees {k} and {k + 2}")


def complex_ranks(c: InvariantComplex):
    """Per degree: (dim, rank of d, dim ker d); exact, rank-nullity audited."""
    out = []
    for k, basis in enumerate(c.bases):
        dim = len(basis)
        d = c.diffs[k]
        r = rank(d) if d and d[0] else 0
        ker = dim - r
        out.append((dim, r, ker))
    return out


@dataclass(frozen=True)
class NearlyParallelResult:
    lam: float
    residual: float
    is_nearly_parallel: bool
    torsion_free: bool
    orbit: str


NEARLY_PARALLEL_TOL = 1e-9


def nearly_parallel_check(m: IsotropyModule, t: KForm) -> NearlyParallelResult:
    """Is d t = lambda * star t, lambda != 0?  Decided exactly on `dual_ray`.

    lambda and the residual are reported from the float star.  Flat input
    (d t = 0) is torsion-free, never nearly parallel: lambda must be nonzero.
    One `hitchin_ray` build feeds the class, the exact dual and the metric.
    """
    import numpy as np

    ray = hitchin_ray(t)
    orbit = classify_hitchin(ray[0])
    if orbit is Orbit3Class.DEGENERATE:
        raise ValueError("nearly-parallel check needs a stable form")
    dt = ce_differential(m, t)
    if dt.is_zero():
        return NearlyParallelResult(lam=0.0, residual=0.0,
                                    is_nearly_parallel=False,
                                    torsion_free=True, orbit=orbit.value)
    dual = dual_ray(t, ray)
    st = hodge_star(t, t, ray)
    dtv = np.array(dt.coefficient_vector(), dtype=float)
    lam = float(dtv @ st / (st @ st))
    res = float(np.linalg.norm(dtv - lam * st) / np.linalg.norm(dtv))
    return NearlyParallelResult(
        lam=lam, residual=res,
        is_nearly_parallel=rank([dt.coefficient_vector(),
                                 dual.coefficient_vector()]) == 1,
        torsion_free=False, orbit=orbit.value)


def coclosed_if_stable(m: IsotropyModule, t: KForm):
    """Is d(star t) = 0?  None when t is degenerate.

    Exact, on `dual_ray` (one B build); the dual of an invariant t is
    invariant, so it skips the invariance check of `ce_differential`.
    """
    dual = dual_ray(t)
    if dual is None:
        return None
    return not _diff_terms(dual.terms, m.d_one_forms)


def coclosed_check(m: IsotropyModule, t: KForm) -> bool:
    """Is d(star t) = 0 for the stable form t?  See `coclosed_if_stable`."""
    coclosed = coclosed_if_stable(m, t)
    if coclosed is None:
        raise ValueError("coclosedness needs a stable form")
    return coclosed


def invariant_2form_analysis(m: IsotropyModule):
    """(dimension of invariant 2-forms, are they all closed); exact."""
    basis = invariant_kforms(m, 2)
    closed = all(ce_differential(m, f).is_zero() for f in basis)
    return len(basis), closed


def coclosed_stable_family_dim(c: InvariantComplex, t: KForm) -> int:
    """Dimension of the local family of stable 3-forms with closed duals.

    The dual-form map is a diffeomorphism onto an open set of 4-forms, so
    the family dimension equals dim ker d on invariant 4-forms; the split
    into exact forms plus the complement is reported by `rank_chain_report`.
    """
    if not coclosed_check(c.module, t):
        raise ValueError("reference form is not coclosed")
    ranks = complex_ranks(c)
    return ranks[4][2]


def closed_stable_scan(c: InvariantComplex, samples=10_000, seed=0):
    """Classify random rational points of the closed invariant 3-forms.

    Misses are evidence at this sample size, not nonexistence proofs; the
    report says which orbit classes were hit.  The closed basis is scaled to
    integers by one common denominator, so each sample keeps its ray, and
    every sample is classified through the family Hitchin map.
    """
    import random as _random

    basis3 = c.bases[3]
    d3mat = c.diffs[3]
    closed_coeff = nullspace(d3mat) if d3mat and d3mat[0] else \
        identity(len(basis3))
    basis_vecs = [f.coefficient_vector() for f in basis3]
    closed_vecs = []
    for cc in closed_coeff:
        v = [Fraction(0)] * len(basis_vecs[0]) if basis_vecs else []
        for co, bv in zip(cc, basis_vecs):
            if co != 0:
                v = [x + co * y for x, y in zip(v, bv)]
        closed_vecs.append(v)
    den = math.lcm(*(x.denominator for v in closed_vecs for x in v))
    hitchin = family_hitchin_map([[(x * den).numerator for x in v]
                                  for v in closed_vecs])
    rng = _random.Random(seed)
    counts = {k.value: 0 for k in Orbit3Class}
    n = len(closed_vecs)
    for _ in range(samples if n else 0):
        coeffs = [rng.randint(-9, 9) for _ in range(n)]
        # the zero sample has B = 0 and counts as degenerate
        counts[classify_hitchin(hitchin(coeffs)).value] += 1
    return {
        "closed_dim": n,
        "samples": samples,
        "counts": counts,
        "stable_found": counts["definite"] + counts["indefinite"] > 0,
        "note": "sampling evidence only; not a nonexistence proof",
    }


def exact_primitive(c: InvariantComplex, target: KForm):
    """Some invariant k-form with d = target, or None (degree of target - 1)."""
    k = target.degree - 1
    rows_next = [f.coefficient_vector() for f in c.bases[k + 1]]
    tcoeff = solve(transpose(mat(rows_next)), [target.coefficient_vector()])
    if tcoeff is None:
        return None
    x = solve(c.diffs[k], tcoeff)
    if x is None:
        return None
    out = KForm.zero(c.module.dimV, k)
    for co, f in zip(x[0], c.bases[k]):
        out = out + co * f
    return out


# ---------------------------------------------------------------------------
# nearly-parallel ray search over a two-parameter invariant family
# ---------------------------------------------------------------------------

def nearly_parallel_rays(m: IsotropyModule, grid=720):
    """Rays of the invariant family satisfying d t = lambda star t, lambda != 0.

    For a 1-dimensional family this is a single check.  For 2-dimensional
    families the definite cone is located exactly on an angular grid of
    rational rays; residual minima are then refined by golden section.
    Returns a list of dicts (coefficients, lambda, residual).
    """
    import numpy as np

    from .liealg import invariant_3forms

    basis = invariant_3forms(m)
    if len(basis) == 1:
        r = nearly_parallel_check(m, basis[0])
        return [{"coeffs": [1.0], "lambda": r.lam, "residual": r.residual}] \
            if r.is_nearly_parallel else []
    if len(basis) != 2:
        raise ValueError("ray search implemented for families of dim 1 and 2")
    f1, f2 = basis
    df1, df2 = (np.array(ce_differential(m, f).coefficient_vector(),
                         dtype=float) for f in basis)

    def is_definite(theta, digits=9):
        a, b = math.cos(theta), math.sin(theta)
        fa = Fraction(round(a * 10 ** digits), 10 ** digits)
        fb = Fraction(round(b * 10 ** digits), 10 ** digits)
        return classify3(fa * f1 + fb * f2) is Orbit3Class.DEFINITE

    def residual(theta):
        # float path: valid in the open definite cone, where the metric and
        # star vary smoothly; definiteness is certified separately
        a, b = math.cos(theta), math.sin(theta)
        fa = Fraction(round(a * 10 ** 15), 10 ** 15)
        fb = Fraction(round(b * 10 ** 15), 10 ** 15)
        t = fa * f1 + fb * f2
        dt = a * df1 + b * df2
        ndt = np.linalg.norm(dt)
        if ndt == 0.0:
            return 0.0, 0.0
        try:
            st = hodge_star(t, t)
        except ValueError:
            return None
        lam = float(dt @ st / (st @ st))
        return float(np.linalg.norm(dt - lam * st) / ndt), lam

    found = []
    thetas = [math.pi * k / grid for k in range(grid)]
    vals = []
    for th in thetas:
        r = residual(th) if is_definite(th, digits=6) else None
        vals.append(None if r is None else r[0])
    for i, v in enumerate(vals):
        if v is None:
            continue
        lo, hi = vals[i - 1] if i > 0 else vals[-1], vals[(i + 1) % grid]
        if lo is None or hi is None or lo < v or hi < v:
            continue
        a = thetas[i] - math.pi / grid
        b = thetas[i] + math.pi / grid
        th, val, lam = _golden(residual, a, b)
        if val is not None and val <= NEARLY_PARALLEL_TOL \
                and abs(lam) > NEARLY_PARALLEL_TOL and is_definite(th):
            if not any(abs(th - f["theta"]) < 1e-6 for f in found):
                found.append({"theta": th,
                              "coeffs": [math.cos(th), math.sin(th)],
                              "lambda": lam, "residual": val})
    return found


def _golden(fun, a, b, iters=80):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    best = (None, None, None)
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        v1 = f1[0] if f1 is not None else float("inf")
        v2 = f2[0] if f2 is not None else float("inf")
        if v1 < v2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = fun(x2)
    cand = [(f, x) for f, x in ((f1, x1), (f2, x2)) if f is not None]
    if not cand:
        return None, None, None
    (fv, lam), x = min(((f, x) for f, x in cand), key=lambda t: t[0][0])
    return x, fv, lam
