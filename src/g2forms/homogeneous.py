"""Invariant de Rham complex of a reductive homogeneous pair.

On invariant forms the exterior differential reduces to the algebraic
formula through the V-part of the bracket,
    (d a)(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i, X_j]_V, X_0..^i..^j..X_k),
so d(e^l) = -sum_{i<j} c^l_{ij} e^i ^ e^j extended as an antiderivation.
d^2 = 0 holds on invariant forms and is asserted, not assumed.

Ranks, kernels and every yes/no answer are exact.  Coclosedness and the
nearly parallel test read the exact `dual_ray`, a positive multiple of the
Hodge dual, and the rays of a two-parameter family come from an exact
pencil certificate; lambda is reported by its exact, rational ninth power
beside its real ninth root as a float.  No float star is computed.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .linalg import (adjugate, cleared, identity, mat, mat_mul, nullspace,
                     rank, solve, transpose)
from .isotropy import (IsotropyModule, _frozen_matrix, invariant_3forms,
                       invariant_kforms)
from .liealg import MatrixLieAlgebra
from .multilinear import KForm, algebra_action, pullback, sort_index
from .scan import ScanConfig, family_hitchin_map, scan_family
from .stable_forms import (Orbit3Class, _dual_coefficients, _star_on_dual_ray,
                           classify3, classify_hitchin, dual_ray, hitchin_ray)


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
    """Antiderivation extension of d on a sparse terms map (any numeric
    type); the map returned holds no zero, so d = 0 exactly when it is
    empty."""
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
                out[key] = out.get(key, 0) + c * c2 * (s * s_p)
    return {key: c for key, c in out.items() if c}


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


@dataclass(frozen=True)
class InvariantComplex:
    """Per-degree invariant bases and exact differential matrices.

    A frozen value, as `IsotropyModule` is: `bases[k]` is the tuple of
    invariant k-forms and `diffs[k]` the matrix, a tuple of tuples, taking
    degree-k coordinates to degree-(k+1) coordinates.
    """

    module: IsotropyModule
    bases: tuple
    diffs: tuple

    def __post_init__(self):
        freeze = object.__setattr__
        freeze(self, "bases", tuple(map(tuple, self.bases)))
        freeze(self, "diffs", tuple(map(_frozen_matrix, self.diffs)))

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
    lam9: Fraction
    residual: float
    is_nearly_parallel: bool
    torsion_free: bool
    orbit: str


def _root9(x: Fraction) -> float:
    """The real ninth root of x, exact when x is a rational's ninth power."""
    roots = []
    for n in (abs(x.numerator), x.denominator):  # floor roots, by Newton
        r = 1 << (n.bit_length() // 9 + 1)
        while r and (y := (8 * r + n // r ** 8) // 9) < r:
            r = y
        roots.append(r)
    if Fraction(*roots) ** 9 == abs(x):
        return math.copysign(roots[0] / roots[1], x)
    return math.copysign(float(abs(x)) ** (1 / 9), x)


def nearly_parallel_check(m: IsotropyModule, t: KForm) -> NearlyParallelResult:
    """Is d t = lambda * star t, lambda != 0?  Exact, on star t = kappa Q.

    With dq = dt.Q, qq = Q.Q, dd = dt.dt, lambda = dq / (kappa qq) has the
    rational ninth power `lam9` (`_star_on_dual_ray`), the residual
    |dt - lambda star t| / |dt| is sqrt(1 - dq^2 / (dd qq)), and t is nearly
    parallel iff dq^2 = dd qq.  Flat input (d t = 0) is torsion-free, never
    nearly parallel.  One `hitchin_ray` feeds `classify_hitchin` and the
    adjugate.
    """
    ray = hitchin_ray(t)
    orbit = classify_hitchin(ray[0])
    if orbit is Orbit3Class.DEGENERATE:
        raise ValueError("nearly-parallel check needs a stable form")
    dt = ce_differential(m, t)
    if dt.is_zero():
        return NearlyParallelResult(lam=0.0, lam9=Fraction(0), residual=0.0,
                                    is_nearly_parallel=False,
                                    torsion_free=True, orbit=orbit.value)
    q, kappa9 = _star_on_dual_ray(t, ray)
    dq, qq, dd = dt.dot(q), q.dot(q), dt.dot(dt)
    lam9 = (dq / qq) ** 9 / kappa9
    return NearlyParallelResult(
        lam=_root9(lam9), lam9=lam9,
        residual=math.sqrt(1 - dq * dq / (dd * qq)),
        is_nearly_parallel=dq * dq == dd * qq,
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


def closed_stable_scan(c: InvariantComplex, config: ScanConfig = None):
    """Which stable classes the closed invariant 3-forms of c hold.

    The closed basis is scaled to integers by one common denominator, so
    each sample keeps its ray, and the family goes through `scan_family`
    (exact exclusions, then a witness scan at `config`).  The report adds
    `closed_dim` and `stable_found` to the scan report.
    """
    basis3 = c.bases[3]
    d3mat = c.diffs[3]
    closed_coeff = nullspace(d3mat) if d3mat and d3mat[0] else \
        identity(len(basis3))
    closed_vecs = mat_mul(closed_coeff,
                          [f.coefficient_vector() for f in basis3])
    rep = scan_family(cleared(closed_vecs)[0], config)
    rep.update(closed_dim=len(closed_vecs),
               stable_found=rep["has_definite"] or rep["has_indefinite"])
    return rep


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
# nearly parallel rays of a two-parameter invariant family: an exact pencil
# certificate from integer evaluations
# ---------------------------------------------------------------------------

#: degrees in the slope s along t(s) = f1 + s f2 (see `certify_pencil`)
DET_DEGREE = 21
Q_DEGREE = 55
MINOR_DEGREE = 56
#: nonsingular slopes evaluated: one more than the largest degree
PENCIL_SLOPES = MINOR_DEGREE + 1


class CertificateRefused(ValueError):
    """An exact certificate failed one of its checks."""


class PencilEvaluations(NamedTuple):
    """The pencil t(s) = f1 + s f2 at integer slopes with det B(s) != 0.

    f1 and f2 (`basis`) are cleared to integer vectors x1, x2 by one common
    denominator, so t(s) = x1 + s x2 is an integer 3-form on the same ray;
    `d1`, `d2` are d x1 and d x2 cleared by another.  At each slope, q holds
    the integer coefficients of Q(s) = star_euclidean(pullback(adj B(s),
    t(s))), with adj B = det B * B^-1 the integer adjugate, and dq the terms
    of d Q(s).  `singular` lists the slopes skipped for det B(s) = 0.

    Every value is an integer computation on vectors: B(s) is the family
    Hitchin map of (x1, x2) at (1, s), q is read off the 3 x 3 minors of
    adj B(s) directly (`_dual_coefficients`), and dq is one integer matrix
    of d on 4-forms applied to q (`_d4_matrix`).
    """

    basis: tuple
    d1: tuple
    d2: tuple
    slopes: tuple
    singular: tuple
    q: tuple
    dq: tuple


def _slope_order():
    """0, 1, -1, 2, -2, ...: distinct integer slopes, smallest first."""
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _d4_matrix(m: IsotropyModule):
    """The exterior differential Lambda^4 -> Lambda^5 of m on integers.

    Column I is d e^I (`_diff_terms`), and the matrix is cleared by one
    common denominator den.  Returns (rows, den), rows mapping each
    5-index to its nonzero (position of I, integer) pairs.
    """
    cols = [_diff_terms({idx: 1}, m.d_one_forms)
            for idx in combinations(range(1, m.dimV + 1), 4)]
    den = math.lcm(*(v.denominator for col in cols for v in col.values()))
    rows = {}
    for pos, col in enumerate(cols):
        for key, v in col.items():
            rows.setdefault(key, []).append((pos, int(v * den)))
    return rows, den


def pencil_evaluations(m: IsotropyModule):
    """Evaluate the pencil of the two invariant 3-forms at 57 slopes.

    Slopes run 0, 1, -1, 2, ..., skipping those with det B(s) = 0.  Every
    value is an integer computation.  B(s) comes from one
    `family_hitchin_map` of (x1, x2), expanded once and called at (1, s);
    then one fraction-free `adjugate`, the coefficients of Q(s) read
    directly off the 3 x 3 minors of adj B(s) (`_dual_coefficients`), and
    d Q(s) from one integer matrix of d on 4-forms, built once
    (`_d4_matrix`).  det B(s) has degree at most 21 in s, so unless it is
    identically 0 at most 21 slopes are skipped; the loop stops at the
    22nd singular slope, which proves det B(s) = 0 and leaves no
    nonsingular slope.
    """
    basis = tuple(invariant_3forms(m))
    if len(basis) != 2:
        raise ValueError("the pencil needs a two-parameter family")
    (x1, x2), _ = cleared([f.coefficient_vector() for f in basis])
    (d1, d2), _ = cleared([ce_differential(m, KForm.from_coefficient_vector(
        7, 3, x)).coefficient_vector() for x in (x1, x2)])
    hitchin = family_hitchin_map([x1, x2])
    d4, den = _d4_matrix(m)
    slopes, singular, qs, dqs = [], [], [], []
    for s in _slope_order():
        detb, adj = adjugate(hitchin((1, s)))
        if detb == 0:
            singular.append(s)
            if len(singular) > DET_DEGREE:
                break
            continue
        q = _dual_coefficients(adj, [a + s * b for a, b in zip(x1, x2)])
        dq = {}
        for key, row in d4.items():
            total = sum(v * q[pos] for pos, v in row)
            if total:
                dq[key] = Fraction(total, den)
        slopes.append(s)
        qs.append(tuple(q))
        dqs.append(dq)
        if len(slopes) == PENCIL_SLOPES:
            break
    return PencilEvaluations(basis=basis, d1=tuple(d1), d2=tuple(d2),
                             slopes=tuple(slopes), singular=tuple(singular),
                             q=tuple(qs), dq=tuple(dqs))


def _fits(slopes, vals, m, c, r):
    """Is vals[j] = c s_j^m (s_j - r) at every slope?"""
    return all(v == c * s ** m * (s - r) for s, v in zip(slopes, vals))


def _fit_reference(slopes, vals):
    """(m, c, r) with vals = c s^m (s - r) at every slope, c != 0, or None.

    Candidates come from three nonzero slopes, where vals / s^m must be
    linear; only the check at every slope accepts one.  Two such forms of
    degree <= 56 that agree at the 57 slopes are equal, so the fit is
    unique.
    """
    pts = [(s, v) for s, v in zip(slopes, vals) if s][:3]
    for m in range(MINOR_DEGREE):
        (sa, ua), (sb, ub), (sc, uc) = [(s, Fraction(v, s ** m))
                                        for s, v in pts]
        c = (ub - ua) / (sb - sa)
        if c == 0 or (uc - ub) / (sc - sb) != c:
            continue
        r = sa - ua / c
        if _fits(slopes, vals, m, c, r):
            return m, c, r
    return None


class PencilCertificate(NamedTuple):
    """Exact nearly-parallel and coclosed verdicts on a two-parameter family.

    `minors` holds (i, m_i, c_i): p_i(s) = c_i s^m_i (s - r) for the 4-form
    index i.  `special` holds (slope, orbit, nearly parallel) for each ray
    checked one by one; the slope None is the ray of f2.  `rays` lists the
    nearly parallel rays in the definite cone, in the shape of
    `nearly_parallel_rays`.  A family with det B identically 0 has no
    slopes, pivot or r, and no stable ray.
    """

    slopes: tuple
    pivot: int
    r: Fraction
    minors: tuple
    special: tuple
    coclosed: bool
    rays: tuple

    def nearly_parallel_count(self, orbit=None):
        return sum(1 for _, o, npar in self.special
                   if npar and orbit in (None, o))

    def to_json(self):
        idx4 = list(combinations(range(1, 8), 4))
        return {
            "degree_bounds": {"Q": Q_DEGREE, "minor": MINOR_DEGREE,
                              "dQ": Q_DEGREE},
            "slopes": list(self.slopes),
            "pivot": None if self.pivot is None else list(idx4[self.pivot]),
            "r": None if self.r is None else str(self.r),
            "minors": [{"index": list(idx4[i]), "m": m, "c": str(c)}
                       for i, m, c in self.minors],
            "special_rays": [
                {"slope": "infinity" if s is None else str(s),
                 "orbit": o, "nearly_parallel": npar}
                for s, o, npar in self.special],
            "coclosed_identity": self.coclosed,
        }


def certify_pencil(m: IsotropyModule, ev: PencilEvaluations):
    """Prove which stable rays of t(s) = f1 + s f2 are nearly parallel.

    Q(s) and d Q(s) have degree at most 55 in s, and each minor
    p_i = dt_i0 Q_i - dt_i Q_i0 of [dt, Q] at most 56 (derived in
    `nearly_parallel_rays`).  For det B(s) != 0, Q(s) is a positive multiple of star t(s)
    (`dual_ray`).  Where dt_i0(s) != 0, t(s) is nearly parallel exactly
    when every p_i(s) = 0.  The check p_i(s) = c_i s^m_i (s - r) at the 57
    slopes, with m_i <= 55, is therefore a polynomial identity, and with
    some c_i != 0 the only stable candidates are s = r and s = 0.  The rays
    left out, s = 0, r, the zero of dt_i0 and the ray of f2, each get one
    exact `nearly_parallel_check` (or an exact degenerate class).  Likewise
    d Q vanishing at 57 slopes is the identity d Q = 0, so every stable ray
    with a finite slope is coclosed; f2 is checked on its own.  A failed
    check raises `CertificateRefused`; r may come from anywhere, only the
    checks prove.  More than 21 singular slopes prove det B(s) = 0 (it has
    degree at most 21), and then det B(f2) = 0 too, as the limit of
    det B(f1 + s f2) / s^21: every member is degenerate and no ray is
    stable, so the certificate lists none.
    """
    if len(set(ev.singular)) > DET_DEGREE:
        return PencilCertificate(slopes=(), pivot=None, r=None, minors=(),
                                 special=(), coclosed=True, rays=())
    if len(set(ev.slopes)) < PENCIL_SLOPES:
        raise CertificateRefused(
            f"{len(set(ev.slopes))} distinct slopes; the degree bound "
            f"needs {PENCIL_SLOPES}")
    n = len(ev.d1)
    i0 = next((i for i in range(n) if ev.d1[i] or ev.d2[i]), None)
    if i0 is None:
        raise CertificateRefused("d vanishes on the whole family")
    dts = [[a + s * b for a, b in zip(ev.d1, ev.d2)] for s in ev.slopes]
    minors = {i: [dt[i0] * q[i] - dt[i] * q[i0] for dt, q in zip(dts, ev.q)]
              for i in range(n) if i != i0}
    # the first nonzero minor sets r; every other one must share it
    terms, r = [], None
    for i, vals in minors.items():
        if not any(vals):
            continue
        fit = _fit_reference(ev.slopes, vals)
        if fit is None:
            raise CertificateRefused(
                f"minor {i} is not c s^m (s - r) at every slope")
        if r is not None and fit[2] != r:
            raise CertificateRefused(
                f"minor {i} has the root {fit[2]}, not r = {r}")
        *mc, r = fit
        terms.append((i, *mc))
    if r is None:
        raise CertificateRefused(
            "no minor has the form c s^m (s - r) at every slope")
    f1, f2 = ev.basis
    a, b = ev.d1[i0], ev.d2[i0]
    candidates = [Fraction(0), r] + ([Fraction(-a, b)] if b else []) + [None]
    special, rays = [], []
    for s in dict.fromkeys(candidates):
        t = f2 if s is None else f1 + s * f2
        orbit = classify3(t)
        if orbit is Orbit3Class.DEGENERATE:
            special.append((s, orbit.value, False))
            continue
        res = nearly_parallel_check(m, t)
        special.append((s, res.orbit, res.is_nearly_parallel))
        if res.is_nearly_parallel and orbit is Orbit3Class.DEFINITE:
            rays.append(_unit_ray(s, res))
    coclosed = not any(ev.dq) and coclosed_if_stable(m, f2) is not False
    return PencilCertificate(slopes=ev.slopes, pivot=i0, r=r,
                             minors=tuple(terms), special=tuple(special),
                             coclosed=coclosed, rays=tuple(rays))


def _unit_ray(s, res):
    """The ray dict of t = f1 + s f2 (s None: f2) at unit coefficients.

    Coefficients (cos th, sin th), 0 <= th < pi, as a unit vector on the
    ray; lambda scales as |t|^(-1/3), so lambda at t is multiplied by
    (1 + s^2)^(1/6).  `lambda9` is the exact lambda^9 at t itself.
    """
    a, b = (0.0, 1.0) if s is None else (1.0, float(s))
    norm = math.hypot(a, b)
    sign = -1.0 if b < 0 else 1.0
    return {"slope": s, "orbit": res.orbit,
            "coeffs": [sign * a / norm, sign * b / norm],
            "lambda": res.lam * norm ** (1.0 / 3.0), "lambda9": res.lam9,
            "residual": res.residual}


def pencil_certificate(m: IsotropyModule) -> PencilCertificate:
    """`certify_pencil` on the 57 evaluations of `pencil_evaluations`."""
    return certify_pencil(m, pencil_evaluations(m))


def nearly_parallel_rays(m: IsotropyModule):
    """Rays of the invariant family satisfying d t = lambda star t, lambda != 0.

    For a 1-dimensional family this is a single check.  For a 2-dimensional
    family the rays are those of `pencil_certificate` in the definite cone;
    the certificate proves that no other stable ray is nearly parallel, and
    a family whose members are all degenerate has none.  Returns a list of
    dicts (coefficients, float lambda, its exact power lambda9, residual 0).

    Degree bounds of the certificate, along t(s) = f1 + s f2: the entries
    of B(s) are cubic in t, so cubic in s, and those of adj B(s), its 6 x 6
    minors, have degree 6 * 3 = 18.  A 3-form pulls back through the 3 x 3
    minors of adj B, degree 3 * 18 = 54, each times a linear coefficient of
    t(s), so Q(s) = star_euclidean(pullback(adj B(s), t(s))) has degree at
    most 55, and so has d Q(s), d being linear with constant coefficients.
    dt(s) is linear, so each minor dt_i0 Q_i - dt_i Q_i0 has degree at
    most 56: 57 distinct slopes decide an identity between such
    polynomials.
    """
    basis = invariant_3forms(m)
    if len(basis) == 1:
        r = nearly_parallel_check(m, basis[0])
        return [{"coeffs": [1.0], "lambda": r.lam, "lambda9": r.lam9,
                 "residual": r.residual}] if r.is_nearly_parallel else []
    if len(basis) != 2:
        raise ValueError("nearly parallel rays need a family of dim 1 or 2")
    return list(pencil_certificate(m).rays)
