"""The classification table as machine-checkable Lie-algebra data.

Each entry names a pair (g, h) with dim g - dim h = 7, default integer
parameters where the family has them, finite component generators, and the
expected invariants: (d1, d2, d3), the real-irreducible dimension
fingerprint, and whether the invariant 3-form family contains definite and
indefinite members.  Entries live in data/catalog.json; each case's
builder in `_BUILDERS` takes its parameters and assembles the pair from
the liealg constructors, `build_entry` turns it into the isotropy module,
and `verify_entry` recomputes everything exactly and compares.  A
generator's V-spectrum is read off two kernels, ker(f + 1) and ker(f - 1)
(`_sign_spectrum`).

Generator expectations:
  accepted  -- included in the module; must normalize the pair and preserve
               an indefinite member of the invariant family
  rejected  -- must normalize the pair but fail the indefinite-compatibility
               check, e.g. a torus-coordinate swap; both shipped rejections
               are exact: the candidate-fixed family has a common kernel,
               so every member is degenerate
  detneg    -- shadow check only: det of the V-action is negative
"""

import inspect
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from importlib import resources
from itertools import combinations

from .linalg import (ZERO, Basis, block_diag, cleared, det, embed_block,
                     frac, identity, inverse, mat, mat_vec, nullspace, rank,
                     sparse_vector, transpose, zeros)
from .isotropy import (IsotropyModule, basis_coordinates, invariant_dims,
                       invariant_form_types, invariant_inner_product,
                       invariant_kform_basis, irreducible_dims,
                       module_from_action)
from .liealg import (MatrixLieAlgebra, build_algebra, creal, diag_torus_su,
                     generator_v_matrix, product_algebra, reductive_complement,
                     rotation_block, so_basis, sp_basis, sp_matrix, su_basis)
from .multilinear import KForm, annihilator_of_form, pullback
from .stable_forms import PHI, annihilator_g2


# ---------------------------------------------------------------------------
# special algebra constructions
# ---------------------------------------------------------------------------

def compute_g2_algebra() -> MatrixLieAlgebra:
    """The 14-dimensional annihilator of the definite reference form."""
    return MatrixLieAlgebra.from_basis("g2", annihilator_g2())


def compute_su3_in_g2():
    """The joint stabilizer algebra of PHI and e^1: an su(3), dimension 8."""
    return annihilator_of_form(PHI, KForm.basis(7, 1))


def _restrict(mats, basis_vecs):
    """Restrict integer operators to an invariant subspace given by
    coordinate rows, cleared to integers w_k over one denominator, which
    cancels: the `linalg.Basis` of the w_k reads each image A w_j as y with
    sum_k y_k w_k = d A w_j, and y / d is column j of A's restriction."""
    ws, _ = cleared(basis_vecs)
    basis = Basis.from_echelon(map(sparse_vector, ws))
    out = []
    for a in mats:
        cols = [basis.read(sparse_vector(mat_vec(a, w))) for w in ws]
        if None in cols:
            raise AssertionError("subspace is not invariant")
        out.append([[Fraction(y, basis.d) for y in row]
                    for row in transpose(cols)])
    return out


def so3_irrep(dim):
    """The real irreducible so(3)-representation of odd dimension 2d + 1.

    Realized on harmonic homogeneous polynomials of degree d in three
    variables; the action matrices are exact and the invariant symmetric
    form is rational (not the identity).
    """
    d = (dim - 1) // 2
    if 2 * d + 1 != dim:
        raise ValueError("so(3) irreducibles here have odd dimension")
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    pos = {m: i for i, m in enumerate(monos)}

    def rot_action(axis):
        # vector field x_i d/d x_j - x_j d/d x_i on degree-d monomials
        i, j = {(0): (1, 2), 1: (2, 0), 2: (0, 1)}[axis]
        out = [[0] * len(monos) for _ in monos]
        for m, col in pos.items():
            for src, dst, sign in ((j, i, -1), (i, j, 1)):
                if m[src] > 0:
                    e = list(m)
                    e[src] -= 1
                    e[dst] += 1
                    out[pos[tuple(e)]][col] += sign * m[src]
        return out

    acts = [rot_action(a) for a in range(3)]
    # harmonic subspace: kernel of the Laplacian on degree-d polynomials
    tgt = [(a, b, d - 2 - a - b) for a in range(d - 1) for b in range(d - 1 - a)]
    tpos = {m: i for i, m in enumerate(tgt)}
    lap = [[0] * len(monos) for _ in tgt]
    for m, col in pos.items():
        for ax in range(3):
            if m[ax] >= 2:
                e = list(m)
                e[ax] -= 2
                lap[tpos[tuple(e)]][col] += m[ax] * (m[ax] - 1)
    harm = nullspace(lap) if tgt else identity(len(monos))
    if len(harm) != dim:
        raise AssertionError("harmonic space has unexpected dimension")
    return _restrict(acts, harm)


def orthogonal_algebra_of_form(d):
    """{M : M^T D + D M = 0} for a symmetric positive form D.

    This is a compact realization of so(n) adapted to a representation whose
    invariant inner product D is rational but not the standard one; the
    basis is D^{-1} (E_ij - E_ji): column i of D^{-1} = `inverse(d)` in
    column j, minus column j in column i.
    """
    n = len(d)
    dinv = inverse(d)
    return MatrixLieAlgebra.from_basis(f"so({n};form)", [
        [[row[i] if c == j else -row[j] if c == i else ZERO
          for c in range(n)] for row in dinv]
        for i, j in combinations(range(n), 2)])


# ---------------------------------------------------------------------------
# ambient group elements used as finite generators
# ---------------------------------------------------------------------------

def _su2_group_real(q):
    """SU(2) element for a unit quaternion (a, b, c, d), real 4x4."""
    a, b, c, d = [frac(x) for x in q]
    re = [[a, c], [-c, a]]
    im = [[b, d], [d, -b]]
    return creal(re, im)


def _sp2_unit_quaternion_block2(q):
    """Sp(2) element: identity on the first quaternion slot, q on the second.

    A unit quaternion a+bi+cj+dk on the second slot is A = diag(1, a+bi),
    B = diag(0, c+di) in the realization [[A, B], [-conj B, conj A]].
    """
    a, b, c, d = q
    return sp_matrix([[1, 0], [0, a]], [[0, 0], [0, b]],
                     [[0, 0], [0, c]], [[0, 0], [0, d]])


# ---------------------------------------------------------------------------
# entry recipes
# ---------------------------------------------------------------------------

TETRAHEDRAL_QUATERNIONS = [(0, 1, 0, 0), (Fraction(1, 2), Fraction(1, 2),
                                          Fraction(1, 2), Fraction(1, 2))]


def _sp1_slot_gens(p):
    """The sp(1) summand on quaternion slot p of sp(2), basis (i, j, k)."""
    return sp_basis(2)[3 * p:3 * p + 3]


def _su2_quaternion_gens():
    """su(2) basis matching (i, j, k) of _sp1_slot_gens, real 4x4."""
    j, k, i = su_basis(2)
    return [i, j, k]


def _su3_su2_block_gens(size):
    """su(2) in the top-left block of su(3), real, padded to size x size."""
    return [embed_block(x, size, 0) for x in su_basis(2)]


def _case_1():
    g = build_algebra("sp(2)+su(2)")
    h = [embed_block(x, 12, 0) for x in _sp1_slot_gens(0)]
    h += [block_diag([x, y])
          for x, y in zip(_sp1_slot_gens(1), _su2_quaternion_gens())]
    return g, h, []


def _case_2ai():
    g = build_algebra("so(5)")
    # so(3) on coordinates {3,4,5}
    h = [embed_block(x, 5, 2) for x in so_basis(3)]
    d14 = [[frac(1 if i == j and i == 0 else (-1 if i == j else 0))
            for j in range(5)] for i in range(5)]
    return g, h, [("D14", d14, "accepted")]


def _case_2ci():
    g = build_algebra("sp(2)")
    gens = [(f"2T-{k}", _sp2_unit_quaternion_block2(q), "accepted")
            for k, q in enumerate(TETRAHEDRAL_QUATERNIONS)]
    return g, _sp1_slot_gens(0), gens


def _case_2cii():
    return build_algebra("su(3)+t(2)"), _su3_su2_block_gens(10), []


def _case_2aiii():
    g = build_algebra("su(2)+su(2)+su(2)+u(1)")
    h = [block_diag([x, x, x, zeros(2)]) for x in _su2_quaternion_gens()]
    return g, h, []


def _case_3bii(k, l):
    if k == 0 or math.gcd(abs(k), abs(l)) != 1:
        raise ValueError("3bii needs k != 0 and gcd(k, l) = 1")
    g = build_algebra("sp(2)+u(1)")
    h = [embed_block(x, 10, 0) for x in _sp1_slot_gens(0)]
    # xi1: quaternion i on the second slot; xi2: the external circle
    xi1 = embed_block(_sp1_slot_gens(1)[0], 10, 0)
    xi2 = embed_block(rotation_block(), 10, 8)
    h.append([[k * x + l * y for x, y in zip(*r)] for r in zip(xi1, xi2)])
    return g, h, []


def _case_3biii(k, l):
    # The circle k xi1 + l xi2 rotates the 4-part with weight 3k and the
    # external root plane with weight 2l; landing in the compact so(4)
    # stabilizer forces 2*(3k) = +-(2l).  The table's bare "kl != 0,
    # gcd(k, l) = 1" admits no further instances in these coordinates:
    # checked exactly, see the verification suite.
    if k * l == 0 or math.gcd(abs(k), abs(l)) != 1:
        raise ValueError("3biii needs kl != 0 and gcd(k, l) = 1")
    g = build_algebra("su(3)+su(2)")
    h = _su3_su2_block_gens(10)
    xi1 = embed_block(diag_torus_su(3, [1, 1, -2]), 10, 0)
    xi2 = embed_block(diag_torus_su(2, [1, -1]), 10, 6)
    h.append([[k * x + l * y for x, y in zip(*r)] for r in zip(xi1, xi2)])
    return g, h, []


def _case_3aiii():
    g = build_algebra("su(3)+so(3)")
    # each su(2) element paired with its ad-matrix, an so(3) element with
    # the same structure constants
    su2 = MatrixLieAlgebra.from_basis("su(2)", _su3_su2_block_gens(6))
    ads = [transpose(row) for row in su2.structure_constants()]
    h = [block_diag([x, ad]) for x, ad in zip(su2.basis, ads)]
    h.append(embed_block(diag_torus_su(3, [1, 1, -2]), 9, 0))
    return g, h, []


def _case_4i():
    g = build_algebra("su(2)+su(2)+su(2)")
    h = [block_diag([diag_torus_su(2, [w, -w]) for w in weights])
         for weights in ((0, 1, -1), (1, 0, -1))]
    a12 = creal(zeros(2), [[0, 1], [1, 0]])  # [[0, i], [i, 0]]
    return g, h, [("A12-triple", block_diag([a12] * 3), "accepted")]


def _case_4ii(k, m_par):
    g = build_algebra("u(3)")
    h = [diag_torus_su(3, [k, k, k + 1]),
         diag_torus_su(3, [m_par, m_par + 1, m_par + 1])]
    gens = []
    coords = (-(m_par + 1), m_par - k, k)
    if len(set(coords)) < 3:
        b23 = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]
        gens.append(("B23-swap", creal(mat(b23), zeros(3)), "rejected"))
    return g, h, gens


def _case_5i(k, l):
    g = build_algebra("u(2)+u(2)")
    h = block_diag([diag_torus_su(2, [k, k + 1]),
                     diag_torus_su(2, [l, l + 1])])
    return g, [h], []


def _case_5ii(k, l, m_par):
    if k + l + m_par != 0:
        raise ValueError("5ii weights must sum to zero")
    if math.gcd(abs(k), abs(l)) != 1:
        raise ValueError("5ii needs gcd(k, l) = 1")
    g = build_algebra("su(3)")
    h = [diag_torus_su(3, [k, l, m_par])]
    return g, h, []


def _case_2d():
    action = so3_irrep(5)
    dform = invariant_inner_product(action)
    g = orthogonal_algebra_of_form(dform)
    h = [mat(a) for a in action]
    return g, h, []


def _case_7():
    g = build_algebra("so(7)")
    h = [mat(b) for b in annihilator_g2()]
    return g, h, []


def _case_8su4():
    # su(3) in the top-left block of su(4)
    return build_algebra("su(4)"), [embed_block(x, 8, 0)
                                    for x in su_basis(3)], []


def _case_8g2r():
    g2 = compute_g2_algebra()
    g = product_algebra("g2+u(1)", [g2, build_algebra("u(1)")])
    h = [embed_block(x, 9, 0) for x in compute_su3_in_g2()]
    d7 = [[frac(-1 if i == j and i % 2 == 0 else (1 if i == j else 0))
           for j in range(7)] for i in range(7)]
    shadow = block_diag([d7, identity(2)])
    return g, h, [("D7", shadow, "detneg")]


def _case_6i():
    return build_algebra("t(7)"), [], []


def _case_6ii():
    u = _su2_group_real((0, 1, 0, 0))  # quaternion i: fixes an R^5
    gen = block_diag([u, identity(8)])
    return build_algebra("su(2)+t(4)"), [], [
        ("R5-fixing-rotation", gen, "rejected")]


def _case_6iii():
    u = _su2_group_real((Fraction(3, 5), Fraction(4, 5), 0, 0))
    ui = _su2_group_real((Fraction(3, 5), Fraction(-4, 5), 0, 0))
    diag = block_diag([u, u, identity(2)])
    cyc = block_diag([u, ui, identity(2)])
    return build_algebra("su(2)+su(2)+u(1)"), [], [
        ("diagonal-rotation", diag, "admits-indefinite"),
        ("cyclic-pair-rotation", cyc, "admits-indefinite")]


#: case -> builder; the builder takes the case's parameters as arguments and
#: returns (g, h, generators), each generator a (name, matrix, expectation)
_BUILDERS = {
    "1": _case_1, "2ai": _case_2ai, "2ci": _case_2ci, "2cii": _case_2cii,
    "2aiii": _case_2aiii, "3bii": _case_3bii, "3biii": _case_3biii,
    "3aiii": _case_3aiii, "4i": _case_4i, "4ii": _case_4ii, "5i": _case_5i,
    "5ii": _case_5ii, "2d": _case_2d, "7": _case_7, "8-su4": _case_8su4,
    "8-g2xR": _case_8g2r, "6i": _case_6i, "6ii": _case_6ii,
    "6iii": _case_6iii,
}


def build_entry(case_id: str, params=()) -> IsotropyModule:
    """Isotropy module for a catalog case; accepted generators included.

    Refuses (ValueError) an unknown case and a parameter list whose length
    is not the case's parameter count.
    """
    params = tuple(params)
    if case_id == "so3_7":
        count = 0
    elif case_id in _BUILDERS:
        count = len(inspect.signature(_BUILDERS[case_id]).parameters)
    else:
        raise ValueError(f"unknown case id: {case_id!r}")
    if len(params) != count:
        raise ValueError(f"case {case_id!r} takes {count} parameters, "
                         f"got {len(params)}")
    if case_id == "so3_7":
        return module_from_action("so3_7", so3_irrep(7))
    g, h, gens = _BUILDERS[case_id](*params)
    label = case_id if not params else f"{case_id}{params}"
    mod = reductive_complement(g, h, label=label)
    accepted = tuple(
        (n, generator_v_matrix(g, mod.h_coords, mod.V_coords, f))
        for n, f, expect in gens if expect == "accepted")
    mod = replace(mod, generators=accepted,
                  pending_generators=tuple(x for x in gens
                                           if x[2] != "accepted"))
    if mod.dimV != 7:
        raise AssertionError(f"{label}: complement has dimension {mod.dimV}")
    return mod


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    case: str
    params: tuple
    checks: list = field(default_factory=list)  # claim dicts

    @property
    def passed(self):
        return all(c["pass"] for c in self.checks)

    def add(self, name, expected, computed):
        self.checks.append(claim(name, expected, computed))

    def to_dict(self):
        return {
            "case": self.case,
            "params": list(self.params),
            "pass": self.passed,
            "checks": self.checks,
        }


def claim(name, expected, computed, published=False):
    """One checked claim: the JSON record every report lists.

    `pass` compares the raw values, so an int and an equal Fraction agree;
    `expected` and `computed` are then made JSON-plain.  A published claim
    compares against a published value: a pass = false there records a
    discrepancy with the paper, and it does not count as a failure.
    """
    out = {"name": name, "expected": _plain(expected),
           "computed": _plain(computed), "pass": expected == computed}
    if published:
        out["published"] = True
    return out


def _plain(x):
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


def load_catalog():
    """The shipped entry list (one dict per case instance)."""
    data = resources.files("g2forms.data").joinpath("catalog.json").read_text()
    return json.loads(data)["entries"]


def catalog_hash():
    import hashlib

    data = resources.files("g2forms.data").joinpath("catalog.json").read_bytes()
    return hashlib.sha256(data).hexdigest()[:16]


def candidate_module(mod: IsotropyModule, name, fmat) -> IsotropyModule:
    """The module with one extra candidate generator adjoined."""
    vmat = generator_v_matrix(mod.ambient, mod.h_coords, mod.V_coords, fmat)
    return replace(mod, label=f"{mod.label}+{name}",
                   generators=(*mod.generators, (name, vmat)))


def generator_compatibility_report(cand: IsotropyModule, scan=None):
    """The `invariant_form_types` report of the module `cand` from
    `candidate_module`, whose last generator is the candidate.

    The candidate is compatible with the indefinite classification table
    when its fixed family still holds an indefinite member.  A rejection is
    exact when the report's `certificate` excludes the indefinite class.
    """
    return invariant_form_types(cand, scan)


def _sign_spectrum(f):
    """[-1] * dim ker(f + 1) + [1] * dim ker(f - 1), the spectrum of a
    generator's V-matrix f when it is rational; None otherwise.

    Ad_F preserves the trace form, so f preserves a definite form (f^T
    gram^-1 f = gram^-1): it is diagonalizable over C with every eigenvalue
    of modulus 1, its only possible rational eigenvalues are -1 and 1, and
    its spectrum is rational exactly when the two kernels fill V.  For any
    f a list returned is its spectrum; None on an f that preserves no
    definite form (a Jordan block, say) does not rule a rational one out.
    """
    dims = [len(f) - rank([[x + s * (i == j) for j, x in enumerate(row)]
                           for i, row in enumerate(f)]) for s in (1, -1)]
    if sum(dims) != len(f):
        return None
    return [Fraction(-1)] * dims[0] + [Fraction(1)] * dims[1]


def verify_entry(entry, scan_config=None, module=None) -> VerificationReport:
    """Recompute an entry's invariants and compare with its expectations."""
    case = entry["case"]
    params = tuple(entry.get("params", ()))
    rep = VerificationReport(case=case, params=params)
    mod = module if module is not None else build_entry(case, params)
    exp = entry["expected"]
    if exp.get("effective", True):
        rep.add("ker isotropy = 0", 0, mod.kernel_dim())
    dims = invariant_dims(mod)
    rep.add("d1", exp["d1"], dims.d1)
    rep.add("d2", exp["d2"], dims.d2)
    rep.add("d3", exp["d3"], dims.d3)
    rep.add("d3 = d1 + d2", dims.d3, dims.d1 + dims.d2)
    rep.add("irreducible dims", list(exp["irr"]), irreducible_dims(mod))
    types = invariant_form_types(mod, scan_config)
    rep.add("has definite", exp["has_definite"], types["has_definite"])
    rep.add("has indefinite", exp["has_indefinite"], types["has_indefinite"])
    pending = []
    for name, fmat, expect in mod.pending_generators:
        cand = candidate_module(mod, name, fmat)
        vmat = cand.generators[-1][1]
        pending.append((name, vmat))
        if expect == "detneg":
            rep.add(f"generator {name} det < 0 on V", True, det(vmat) < 0)
        else:
            indefinite = generator_compatibility_report(
                cand, scan_config)["has_indefinite"]
            if expect == "rejected":
                rep.add(f"generator {name} rejected (no indefinite fixed "
                        "form)", False, indefinite)
            elif expect == "admits-indefinite":
                rep.add(f"generator {name} admits an indefinite fixed form",
                        True, indefinite)
    spectra = entry.get("generator_spectra", {})
    for name, vmat in pending + list(mod.generators):
        if name in spectra:
            rep.add(f"generator {name} V-spectrum",
                    sorted(Fraction(x) for x in spectra[name]),
                    _sign_spectrum(vmat))
    if mod.generators:
        # accepted generators: fix the algebra-invariant family setwise
        big = invariant_kform_basis(mod.action, (), 3, mod.dimV)
        for name, vmat in mod.generators:
            setwise = basis_coordinates(
                big, [pullback(vmat, f).terms for f in big]) is not None
            rep.add(f"generator {name} fixes family setwise", True, setwise)
    return rep
