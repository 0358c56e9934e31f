"""Invariant de Rham complex of a reductive homogeneous pair.

On invariant forms the exterior differential reduces to the algebraic
formula through the V-part of the bracket,
    (d a)(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i, X_j]_V, X_0..^i..^j..X_k),
so d(e^l) = -sum_{i<j} c^l_{ij} e^i ^ e^j extended as an antiderivation.
d^2 = 0 holds on invariant forms and is asserted, not assumed.

Ranks, kernels and every yes/no answer are exact.  Coclosedness and the
nearly parallel test read the exact dual of the form's one record
(`hitchin_bilinear`), a positive multiple of the Hodge dual, and the rays
of a two-parameter family come from an exact pencil certificate; lambda
is reported by its exact, rational ninth power beside its real ninth root
as a float.  No float star is computed.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, count
from typing import NamedTuple

from .linalg import (Basis, cleared, identity, inertia, kernel, mat_mul,
                     rank, solve, sparse, sparse_mul, sparse_vector)
from .isotropy import (IsotropyModule, basis_coordinates, invariant_3forms,
                       invariant_kforms)
from .liealg import MatrixLieAlgebra
from .multilinear import KForm, algebra_action, pullback, sort_index
from .scan import ScanConfig, scan_family
from .stable_forms import (Orbit3Class, dual_minors, family_hitchin_map,
                           hitchin_bilinear)


def bare_complex(alg: MatrixLieAlgebra) -> IsotropyModule:
    """The h = 0 module of a Lie algebra: V = g, full form complex.

    Unlike `reductive_complement` this does not need a definite trace form,
    so it also accepts noncompact realizations (used for rank cross-checks);
    `gram` is the trace form, indefinite on those.
    """
    struct = alg.structure_constants()
    brackets = {(i, j): struct[i][j]
                for i in range(alg.dim) for j in range(i + 1, alg.dim)}
    return IsotropyModule(label=alg.name, dimV=alg.dim, action=[],
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
        freeze(self, "diffs", tuple(tuple(map(tuple, d)) for d in self.diffs))


def build_complex(m: IsotropyModule) -> InvariantComplex:
    """Assemble the invariant complex; asserts d^2 = 0 exactly.  A basis
    form is invariant by construction (the kernel of the invariance
    system), so d of it is read off its terms; `basis_coordinates` gives
    its column, and a d they cannot rebuild is an AssertionError."""
    n = m.dimV
    bases = [invariant_kforms(m, k) for k in range(n + 1)]
    diffs = []
    for k, src in enumerate(bases):
        tgt = bases[k + 1] if k < n else []
        cols = basis_coordinates(tgt, [_diff_terms(f.terms, m.d_one_forms)
                                       for f in src])
        if cols is None:
            raise AssertionError("d of an invariant form is not invariant")
        diffs.append([[col[i] for col in cols] for i in range(len(tgt))])
    _assert_d_squared_zero(diffs)
    return InvariantComplex(module=m, bases=bases, diffs=diffs)


def _assert_d_squared_zero(diffs):
    """Exact d_{k+1} d_k = 0 for every k, as one sparse product each."""
    for k, (b, a) in enumerate(zip(diffs, diffs[1:])):
        if sparse_mul(sparse(a), sparse(b)):
            raise AssertionError(
                f"d^2 != 0 between degrees {k} and {k + 2}")


def complex_ranks(c: InvariantComplex):
    """Per degree: (dim, rank of d, dim ker d = dim - rank), exact."""
    out = []
    for basis, d in zip(c.bases, c.diffs):
        r = rank(d)
        out.append((len(basis), r, len(basis) - r))
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


def nearly_parallel_check(m: IsotropyModule,
                          t: KForm) -> NearlyParallelResult | None:
    """Is d t = lambda * star t, lambda != 0?  Exact, on star t = kappa Q.

    None when t is degenerate.  One record (`hitchin_bilinear`) gives the
    class and (Q, kappa^9).  With dq = dt.Q, qq = Q.Q, dd = dt.dt,
    lambda = dq / (kappa qq) has the rational ninth power `lam9`, the
    residual |dt - lambda star t| / |dt| is sqrt(1 - dq^2 / (dd qq)), and t
    is nearly parallel iff dq^2 = dd qq.  Flat input (d t = 0) is
    torsion-free, never nearly parallel.
    """
    data = hitchin_bilinear(t)
    orbit = data.orbit
    if orbit is Orbit3Class.DEGENERATE:
        return None
    dt = ce_differential(m, t)
    if dt.is_zero():
        return NearlyParallelResult(lam=0.0, lam9=Fraction(0), residual=0.0,
                                    is_nearly_parallel=False,
                                    torsion_free=True, orbit=orbit.value)
    q, kappa9 = data.dual
    dq, qq, dd = dt.dot(q), q.dot(q), dt.dot(dt)
    lam9 = (dq / qq) ** 9 / kappa9
    return NearlyParallelResult(
        lam=_root9(lam9), lam9=lam9,
        residual=math.sqrt(1 - dq * dq / (dd * qq)),
        is_nearly_parallel=dq * dq == dd * qq,
        torsion_free=False, orbit=orbit.value)


def coclosed_if_stable(m: IsotropyModule, t: KForm):
    """Is d(star t) = 0?  None when t is degenerate."""
    return orbit_and_coclosed(m, t)[1]


def orbit_and_coclosed(m: IsotropyModule, t: KForm):
    """t's orbit class, and whether d(star t) = 0 (None when t is
    degenerate), both off t's one record (`hitchin_bilinear`).

    Exact, on the record's dual; the dual of an invariant t is invariant,
    so it skips the invariance check of `ce_differential`.
    """
    data = hitchin_bilinear(t)
    dual = data.dual
    return data.orbit, (None if dual is None else
                        not _diff_terms(dual[0].terms, m.d_one_forms))


def closed_stable_scan(c: InvariantComplex, config: ScanConfig = None):
    """Which stable classes the closed invariant 3-forms of c hold.

    The closed basis is scaled to integers by one common denominator, so
    each sample keeps its ray, and the family goes through `scan_family`
    (exact exclusions, then a witness scan at `config`).  The report adds
    `closed_dim` and `stable_found`: True over "undecided" over False.
    """
    basis3 = c.bases[3]
    d3mat = c.diffs[3]
    closed_coeff = kernel(map(sparse_vector, cleared(d3mat)[0]), len(basis3))
    closed_vecs = mat_mul(closed_coeff,
                          [f.coefficient_vector() for f in basis3])
    rep = scan_family(cleared(closed_vecs)[0], config)
    found = (rep["has_definite"], rep["has_indefinite"])
    rep.update(closed_dim=len(closed_vecs), stable_found=next(
        (v for v in (True, "undecided") if v in found), False))
    return rep


def exact_primitive(c: InvariantComplex, target: KForm):
    """Some invariant (k-1)-form a with d a = target, a k-form, or None:
    `basis_coordinates` of the target t, then one `solve` against d, the
    `kernel` of [d | -t] read at t's column.  A ValueError refuses another
    dim or a degree outside 1..dimV."""
    n = c.module.dimV
    if target.dim != n:
        raise ValueError(f"target has dim {target.dim}, the complex dim {n}")
    if not 1 <= target.degree <= n:
        raise ValueError(f"target degree {target.degree} is outside 1..{n}")
    k = target.degree - 1
    tcoeff = basis_coordinates(c.bases[k + 1], [target.terms])
    if tcoeff is None:
        return None
    x = solve(c.diffs[k], tcoeff)
    if x is None:
        return None
    out = KForm.zero(n, k)
    for co, f in zip(x[0], c.bases[k]):
        out = out + co * f
    return out


# ---------------------------------------------------------------------------
# nearly parallel rays of a two-parameter invariant family: an exact pencil
# certificate from integer evaluations
# ---------------------------------------------------------------------------

#: degrees in the slope s along t(s) = f1 + s f2 (see `nearly_parallel_rays`)
DET_DEGREE = 21
Q_DEGREE = 13
MINOR_DEGREE = 14
#: nonsingular slopes evaluated: one more than the largest degree
PENCIL_SLOPES = MINOR_DEGREE + 1


class CertificateRefused(ValueError):
    """An exact certificate failed one of its checks."""


class PencilEvaluations(NamedTuple):
    """The pencil t(s) = f1 + s f2 at integer slopes with det B(s) != 0.

    f1 and f2 (`basis`) are cleared to integer vectors x1, x2 by one common
    denominator, so t(s) = x1 + s x2 is an integer 3-form on the same ray;
    `d1`, `d2` are d x1 and d x2 cleared by another.  At each slope, q holds
    the integer coefficients of Q(s) = B(s)^*(star_euclidean t(s)), B(s) the
    family Hitchin map of (x1, x2) at (1, s): its 4 x 4 minors weighed by
    star t(s) (`dual_minors`, as in `HitchinData.dual`).  `singular` lists
    the slopes skipped for det B(s) = 0.
    """

    basis: tuple
    d1: tuple
    d2: tuple
    slopes: tuple
    singular: tuple
    q: tuple


def pencil_evaluations(m: IsotropyModule):
    """Evaluate the pencil of the two invariant 3-forms at 15 slopes.

    Slopes run 0, 1, -1, 2, ..., skipping those with det B(s) = 0.  Every
    value is an integer computation: B(s) comes from one
    `family_hitchin_map` of (x1, x2), expanded once and called at (1, s),
    `inertia` gives det B(s), and `dual_minors` Q(s).  det B(s) has degree
    at most 21 in s, so unless it is identically 0 at most 21 slopes are
    skipped; the loop stops at the 22nd singular slope, which proves
    det B(s) = 0 and leaves no nonsingular slope.
    """
    basis = tuple(invariant_3forms(m))
    if len(basis) != 2:
        raise ValueError("the pencil needs a two-parameter family")
    (x1, x2), _ = cleared([f.coefficient_vector() for f in basis])
    (d1, d2), _ = cleared([ce_differential(m, KForm.from_coefficient_vector(
        7, 3, x)).coefficient_vector() for x in (x1, x2)])
    hitchin = family_hitchin_map([x1, x2])
    slopes, singular, qs = [], [], []
    # distinct integer slopes, smallest first: 0, 1, -1, 2, -2, ...
    for s in chain.from_iterable((k, -k) if k else (0,) for k in count()):
        if not inertia(b := hitchin((1, s)))[2]:
            singular.append(s)
            if len(singular) > DET_DEGREE:
                break
            continue
        slopes.append(s)
        qs.append(tuple(dual_minors(b, [u + s * v for u, v in zip(x1, x2)])))
        if len(slopes) == PENCIL_SLOPES:
            break
    return PencilEvaluations(basis=basis, d1=tuple(d1), d2=tuple(d2),
                             slopes=tuple(slopes), singular=tuple(singular),
                             q=tuple(qs))


def _fit_reference(slopes, vals):
    """(m, c, r) with vals = c s^m (s - r) at every slope, c != 0, or None.

    Candidates come from three nonzero slopes, where vals / s^m must be
    linear; only the check at every slope accepts one.  Two such forms of
    degree <= 14 that agree at the 15 slopes are equal, so the fit is
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
        if all(v == c * s ** m * (s - r) for s, v in zip(slopes, vals)):
            return m, c, r
    return None


@dataclass(frozen=True)
class PencilCertificate:
    """Exact nearly-parallel and coclosed verdicts on a two-parameter family.

    `minors` holds (i, m_i, c_i): p_i(s) = c_i s^m_i (s - r) for the 4-form
    index i, every nonzero minor p_i = dt_i0 Q_i - dt_i Q_i0 of [dt, Q].
    `special` holds (slope, orbit, nearly parallel) for each ray checked
    one by one; the slope None is the ray of f2.  `rays` lists the nearly
    parallel rays in the definite cone, in the shape of
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

    The proof runs in the plane P of p1 = Q(s1), the first nonzero dual,
    and p2 = Q(s2), the first dual off its line.  Every Q(s), d x1 and d x2
    must lie in P: P's `linalg.Basis` reads each in integers as (a, b) with
    a p1 + b p2 = e v, e the reader's d, or refuses it; Q(s) has degree at
    most 13 in s, so at 15 slopes this is an identity.  D(s), e^2 times
    the determinant of dt(s) and Q(s) in the basis (p1, p2), has degree
    at most 14 (see `nearly_parallel_rays`), and its one fit
    D = c s^m (s - r) at the 15 slopes is an identity too.  Where
    det B(s) != 0, Q(s) is a positive multiple of star t(s)
    (`HitchinData.dual`), and where D(s) != 0, dt(s) is no multiple of
    Q(s): the only stable candidates are s = 0 and s = r.  These and the
    ray of f2 each get one exact `nearly_parallel_check`, None on a
    degenerate ray, and so does the zero -a/b of dt's pivot coordinate i0,
    which the argument no longer needs but the record lists.  Each recorded
    minor p_i = dt_i0 Q_i - dt_i Q_i0 is k_i D(s) / e^2, with
    k_i = p1_i0 p2_i - p2_i0 p1_i.  As d Q(s) = (a(s) d p1 + b(s) d p2) / e
    and p1, p2 are duals of stable rays, every stable ray with a finite
    slope is coclosed exactly when d p1 = d p2 = 0; f2, when stable, is
    checked on its own (`coclosed_if_stable`).  A failed check, the first
    being one dual at each of 15 distinct slopes, raises
    `CertificateRefused`.  More than 21 singular slopes prove det B(s) = 0
    (it has degree at most 21), and then det B(f2) = 0 too, as the limit of
    det B(f1 + s f2) / s^21: every member is degenerate, and the
    certificate lists no ray.
    """
    if len(set(ev.singular)) > DET_DEGREE:
        return PencilCertificate(slopes=(), pivot=None, r=None, minors=(),
                                 special=(), coclosed=True, rays=())
    if len(set(ev.slopes)) < PENCIL_SLOPES or len(ev.q) != len(ev.slopes):
        raise CertificateRefused(
            f"{len(ev.q)} duals at {len(set(ev.slopes))} distinct slopes; "
            f"the degree bound needs one dual at each of {PENCIL_SLOPES}")
    n = len(ev.d1)
    i0 = next((i for i in range(n) if ev.d1[i] or ev.d2[i]), None)
    if i0 is None:
        raise CertificateRefused("d vanishes on the whole family")
    # the plane of p1, the first nonzero dual, and p2, the first off its line
    p1 = next((v for v in ev.q if any(v)), ())
    plane, p2 = next(((b, v) for v in ev.q if (b := Basis.from_echelon(
        [sparse_vector(p1), sparse_vector(v)]))), (None, None))
    if plane is None:
        raise CertificateRefused("the duals span no plane")
    coords = [plane.read(sparse_vector(v)) for v in (ev.d1, ev.d2, *ev.q)]
    if None in coords:
        raise CertificateRefused("a 4-form leaves the plane of the duals")
    (a1, b1), (a2, b2), *qs = coords
    fit = _fit_reference(ev.slopes, [(a1 + s * a2) * b - (b1 + s * b2) * a
                                     for s, (a, b) in zip(ev.slopes, qs)])
    if fit is None:
        raise CertificateRefused("D is not c s^m (s - r) at every slope")
    deg, c, r = fit
    terms = tuple((i, deg, c * ki / plane.d ** 2) for i in range(n)
                  if (ki := p1[i0] * p2[i] - p2[i0] * p1[i]))
    f1, f2 = ev.basis
    a, b = ev.d1[i0], ev.d2[i0]
    candidates = [Fraction(0), r] + ([Fraction(-a, b)] if b else []) + [None]
    special, rays = [], []
    for s in dict.fromkeys(candidates):
        res = nearly_parallel_check(m, f2 if s is None else f1 + s * f2)
        if res is None:
            special.append((s, Orbit3Class.DEGENERATE.value, False))
            continue
        special.append((s, res.orbit, res.is_nearly_parallel))
        if res.is_nearly_parallel and res.orbit == Orbit3Class.DEFINITE.value:
            rays.append(_unit_ray(s, res))
    closed = not any(_diff_terms(KForm.from_coefficient_vector(
        m.dimV, 4, p).terms, m.d_one_forms) for p in (p1, p2))
    # the ray of f2 comes last among the special rays
    stable_f2 = special[-1][1] != Orbit3Class.DEGENERATE.value
    coclosed = closed and (not stable_f2 or coclosed_if_stable(m, f2))
    return PencilCertificate(slopes=ev.slopes, pivot=i0, r=r, minors=terms,
                             special=tuple(special), coclosed=coclosed,
                             rays=tuple(rays))


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
    """`certify_pencil` on the 15 evaluations of `pencil_evaluations`."""
    return certify_pencil(m, pencil_evaluations(m))


def nearly_parallel_rays(m: IsotropyModule):
    """Rays of the invariant family satisfying d t = lambda star t, lambda != 0.

    For a 1-dimensional family this is a single check, and a degenerate
    form has no ray.  For a 2-dimensional family the rays are those of
    `pencil_certificate` in the definite cone; the certificate proves that
    no other stable ray is nearly parallel, and a family whose members are
    all degenerate has none.  Returns a list of dicts (coefficients, float
    lambda, its exact power lambda9, residual 0).

    Degree bounds of the certificate, along t(s) = f1 + s f2: the entries
    of B(s) are cubic in t, so cubic in s, and its 4 x 4 minors have degree
    12.  Q(s) = B(s)^*(star_euclidean t(s)) weighs them by the linear
    coefficients of star t(s), so it has degree at most 13 (the adjugate
    route star_euclidean(pullback(adj B(s), t(s))) is det B(s)^2 Q(s), of
    degree up to 55), and so has d Q(s), d being linear.  dt(s) is linear,
    so the determinant D(s) of dt(s) and Q(s) in the plane of the duals,
    and each minor dt_i0 Q_i - dt_i Q_i0, has degree at most 14: 15
    distinct slopes decide an identity between such polynomials.
    """
    basis = invariant_3forms(m)
    if len(basis) == 1:
        r = nearly_parallel_check(m, basis[0])
        if r is None or not r.is_nearly_parallel:
            return []
        return [{"coeffs": [1.0], "lambda": r.lam, "lambda9": r.lam9,
                 "residual": r.residual}]
    if len(basis) != 2:
        raise ValueError("nearly parallel rays need a family of dim 1 or 2")
    return list(pencil_certificate(m).rays)
