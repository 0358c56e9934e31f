import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from g2forms.catalog import (_BUILDERS, build_entry, candidate_module,
                             load_catalog, orthogonal_algebra_of_form)
from g2forms.isotropy import (_certified_split, _invariant_symmetric_forms,
                              invariant_3forms, invariant_dims,
                              invariant_form_types, invariant_kforms,
                              irreducible_dims, module_from_action,
                              schur_exclusion)
from g2forms.liealg import (MatrixLieAlgebra, _check_rep_property,
                            build_algebra, generator_v_matrix,
                            product_algebra, reductive_complement,
                            torus_basis)
from g2forms.linalg import (cleared, identity, inertia, inverse, mat, mat_mul,
                            mat_vec, nullspace, rank, rref, solve, transpose)
from g2forms.scan import ScanConfig, _ray_grid, family_hitchin_map
from references import (SO_FORM_ACTIONS, _conjugated_generators,
                        _kform_reference, _monomial_matrices, _rational_form,
                        _sample_vec, _scan_samples, bracket, check_jacobi,
                        commutator, dense_d1, dense_kernel_dim, mat_sub,
                        trace)
from g2forms.stable_forms import Orbit3Class, classify_coeffs, classify_hitchin

SMALL_SCAN = ScanConfig(grid=400, random=100)

CATALOG = load_catalog()
CATALOG_ROWS = [(e["case"], tuple(e["params"])) for e in CATALOG]
CATALOG_IDS = [f"{c}{list(p) or ''}" for c, p in CATALOG_ROWS]


@pytest.mark.parametrize("name,dim", [
    ("so(5)", 10), ("so(7)", 21), ("su(2)", 3), ("su(3)", 8), ("su(4)", 15),
    ("sp(1)", 3), ("sp(2)", 10), ("u(1)", 1), ("u(3)", 9), ("t(4)", 4),
])
def test_build_algebra_dimensions(name, dim):
    alg = build_algebra(name)
    assert alg.dim == dim
    alg.structure_constants()  # raises if not closed


def test_build_algebra_unknown():
    # an unknown name, and each prefix just outside its sizes at both ends
    for name in ("e8", "g(2)", "so(3"):
        with pytest.raises(ValueError) as err:
            build_algebra(name)
        assert str(err.value) == f"unknown algebra name: {name!r}"
    for name in ("so(1)", "so(8)", "so(9)", "su(1)", "su(5)", "u(0)", "u(5)",
                 "sp(0)", "sp(3)", "t(0)", "t(8)"):
        with pytest.raises(ValueError) as err:
            build_algebra(name)
        assert str(err.value) == f"unsupported size in {name}"


def test_build_algebra_of_a_sum_is_the_product_of_its_factors():
    for name, factors in (("su(3)+t(2)", ["su(3)", "t(2)"]),
                          ("sp(2)+su(2)", ["sp(2)", "su(2)"]),
                          ("su(2)+su(2)+u(1)", ["su(2)", "su(2)", "u(1)"])):
        alg = build_algebra(name)
        assert alg.name == name
        assert alg.basis == product_algebra(
            name, [build_algebra(f) for f in factors]).basis
    with pytest.raises(ValueError) as err:
        build_algebra("su(2)+e8")
    assert str(err.value) == "unknown algebra name: 'e8'"


def test_u1_is_the_rotation_block_of_t1():
    assert build_algebra("u(1)").basis == tuple(map(_frozen, torus_basis(1)))


@pytest.mark.parametrize("name", ["su(3)", "sp(2)", "so(5)"])
def test_jacobi_exact(name):
    check_jacobi(build_algebra(name))


def test_jacobi_detects_a_corrupted_structure_constant():
    alg = build_algebra("su(3)")
    struct = alg.structure_constants()
    k = next(k for k, c in enumerate(struct[0][1]) if c)
    struct[0][1][k] += 1
    struct[1][0][k] -= 1
    with pytest.raises(AssertionError, match="Jacobi fails"):
        check_jacobi(alg, struct)
    assert check_jacobi(alg)


def test_an_edited_view_leaves_the_next_one_unchanged():
    alg = build_algebra("su(3)")
    struct, gram = alg.structure_constants(), alg.trace_form()
    frozen = ([[list(c) for c in row] for row in struct],
              [list(row) for row in gram])
    struct[0][1][0] += 1
    gram[0][0] += 1
    assert (alg.structure_constants(), alg.trace_form()) == frozen


@pytest.mark.parametrize("name", ["su(3)", "sp(2)"])
def test_trace_form_invariance(name):
    alg = build_algebra(name)
    rng = random.Random(0)
    b = alg.basis
    for _ in range(10):
        x, y, z = (b[rng.randrange(len(b))] for _ in range(3))
        # <[X,Y], Z> + <Y, [X,Z]> = 0 for <A,B> = -tr(AB)
        assert trace(mat_mul(commutator(x, y), z)) \
            + trace(mat_mul(y, commutator(x, z))) == 0


def test_built_module_is_frozen():
    import dataclasses

    mod = build_entry("2ai")
    with pytest.raises(dataclasses.FrozenInstanceError):
        mod.label = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        mod.pending_generators = ()
    assert mod.h_dim == len(mod.action) == len(mod.h_coords) == 3


def test_built_module_is_a_deep_value():
    mod = build_entry("2d")
    mod.d_one_forms  # cached; mutating brackets would leave it stale
    with pytest.raises(TypeError):
        mod.brackets[(0, 1)][0] += 1
    with pytest.raises(TypeError):
        mod.brackets[(0, 1)] = ()
    with pytest.raises(TypeError):
        mod.action[0][0][0] = 1
    for name in ("gram", "h_coords", "V_coords"):
        with pytest.raises(TypeError):
            getattr(mod, name)[0][0] = 1
    gens = build_entry("2ai").generators
    with pytest.raises(TypeError):
        gens[0][1][0][0] = 1


@pytest.mark.parametrize("case", ["7", "1"])
def test_reductive_complement_matches_an_inverse_projection(case):
    mod = build_entry(case)
    g, hmat, vvecs = mod.ambient, list(mod.h_coords), list(mod.V_coords)
    hdim = len(hmat)
    # reference: invert the change of basis g -> (h | V) and project
    cb = inverse(transpose(mat(hmat + vvecs)))

    def split(x, y):
        z = mat_vec(cb, bracket(g, x, y))
        return z[:hdim], z[hdim:]

    action = []
    for x in hmat:
        parts = [split(x, v) for v in vvecs]
        assert all(not any(hpart) for hpart, _ in parts)
        action.append(tuple(zip(*(vpart for _, vpart in parts))))
    assert mod.action == tuple(action)
    brackets = {(i, j): tuple(split(vvecs[i], vvecs[j])[1])
                for i, j in combinations(range(len(vvecs)), 2)}
    assert dict(mod.brackets) == brackets
    for i, j in combinations(range(hdim), 2):
        assert not any(split(hmat[i], hmat[j])[1])


@pytest.mark.parametrize("case", ["7", "1", "6i"])
def test_module_gram_is_the_restricted_trace_form(case):
    mod = build_entry(case)
    gram_g, vvecs = mod.ambient.trace_form(), mod.V_coords
    n = len(gram_g)
    expected = [[sum(vi[a] * gram_g[a][b] * vj[b]
                     for a in range(n) for b in range(n)) for vj in vvecs]
                for vi in vvecs]
    assert [list(row) for row in mod.gram] == expected
    assert all(type(x) is Fraction for row in mod.gram for x in row)
    assert any(x == 0 for row in mod.gram for x in row)


def test_trivial_complement():
    g = build_algebra("su(2)")
    mod = reductive_complement(g, list(g.basis))
    assert mod.dimV == 0


def test_case1_module_shape():
    mod = build_entry("1")
    assert mod.dimV == 7
    assert mod.kernel_dim() == 0
    assert irreducible_dims(mod) == [3, 4]


def test_case_2d_module_shape():
    mod = build_entry("2d")
    assert mod.dimV == 7
    assert irreducible_dims(mod) == [7]


@pytest.mark.parametrize("case,params,expected", [
    ("2d", (), (0, 1, 1)),
    ("7", (), (0, 1, 1)),
    ("1", (), (0, 2, 2)),
    ("2cii", (), (3, 7, 10)),
    ("5ii", (1, 2, -3), (1, 4, 5)),
])
def test_invariant_dims_examples(case, params, expected):
    dims = invariant_dims(build_entry(case, params))
    assert (dims.d1, dims.d2, dims.d3) == expected


@pytest.mark.parametrize("case,params,expected", [
    ("1", (), [3, 4]),
    ("2ai", (), [1, 3, 3]),
    ("2d", (), [7]),
    ("2ci", (), [1, 1, 1, 4]),
    ("3bii", (1, 1), [1, 2, 4]),
    ("8-su4", (), [1, 6]),
])
def test_irreducible_dims_examples(case, params, expected):
    mod = build_entry(case, params)
    dims = irreducible_dims(mod)
    assert dims == expected
    assert sum(dims) == 7


def test_weight_set_symmetry_5ii():
    a = invariant_dims(build_entry("5ii", (1, 2, -3)))
    b = invariant_dims(build_entry("5ii", (2, 1, -3)))
    assert (a.d1, a.d2, a.d3) == (b.d1, b.d2, b.d3)


def test_4ii_mirror_families_match():
    a = invariant_dims(build_entry("4ii", (0, 0)))
    b = invariant_dims(build_entry("4ii", (1, -1)))
    assert (a.d1, a.d2, a.d3) == (b.d1, b.d2, b.d3)


def test_5ii_side_conditions():
    with pytest.raises(ValueError):
        build_entry("5ii", (2, 4, -6))
    with pytest.raises(ValueError):
        build_entry("5ii", (1, 2, 3))
    with pytest.raises(ValueError):
        build_entry("3bii", (0, 1))


def test_d3_equals_d1_plus_d2_where_definite_member_exists():
    for case, params in (("1", ()), ("2aiii", ()), ("3aiii", ()),
                         ("4ii", (1, -1)), ("5i", (0, 0))):
        mod = build_entry(case, params)
        dims = invariant_dims(mod)
        rep = invariant_form_types(mod, SMALL_SCAN)
        assert rep["has_definite"] is True
        assert dims.d3 == dims.d1 + dims.d2


def test_3biii_incompatible_weights_fail_the_dimension_law():
    # the table's bare side condition admits these, but the two rotation
    # weights are incompatible: no stable invariant form exists and the
    # dimension identity fails, which is why the shipped instances use
    # l = +-3k
    mod = build_entry("3biii", (1, 1))
    dims = invariant_dims(mod)
    assert dims.d3 != dims.d1 + dims.d2
    rep = invariant_form_types(mod, SMALL_SCAN)
    assert not rep["has_definite"] and not rep["has_indefinite"]


@pytest.mark.parametrize("entry", CATALOG, ids=CATALOG_IDS)
def test_irreducible_dims_stable_across_seeds(entry):
    # every shipped row gives its recorded fingerprint from the splitter
    # draws of every seed, not only from the seed 0 that the package uses
    mod = build_entry(entry["case"], tuple(entry["params"]))
    forms = [cleared(s)[0] for s in mod._action_symmetric_forms]
    ginv = cleared(inverse(mod.gram))[0]
    for seed in range(4):
        assert _certified_split(forms, ginv, random.Random(seed)) == (
            entry["expected"]["irr"])


def test_reductive_complement_needs_a_positive_trace_form():
    # a positive -tr form is what makes the realization compact: the split
    # sl(2, R) + t(4) (indefinite) and the span of diag(1, -1) (negative
    # definite) are both refused
    from g2forms.section5 import su2_t4_printed_constants

    diag = MatrixLieAlgebra.from_basis("diag", [[[Fraction(1), Fraction(0)],
                                      [Fraction(0), Fraction(-1)]]])
    assert inertia(diag.trace_form()) == (0, 1, -2)
    split = su2_t4_printed_constants()
    p, q, _ = inertia(split.trace_form())
    assert p and q
    for g in (split, diag):
        with pytest.raises(ValueError, match="trace form is not definite"):
            reductive_complement(g, [])


def test_representation_property_is_enforced():
    # reductive_complement validates everything; a non-subalgebra must raise
    g = product_algebra("su(2)+t(1)",
                        [build_algebra("su(2)"), build_algebra("u(1)")])
    bad = [g.basis[0], g.basis[1]]  # not closed: [b0, b1] = b2-direction
    with pytest.raises(ValueError, match="not closed under the bracket"):
        reductive_complement(g, bad)


def test_a_linearly_dependent_subalgebra_is_refused():
    # by the split and by a generator: the joint reader of h + V refuses
    # the repeated row, not an elimination of h alone
    su2 = build_algebra("su(2)")
    with pytest.raises(ValueError, match="linearly dependent"):
        reductive_complement(su2, [su2.basis[0], su2.basis[0]])
    g, _, ((_, d14, _),) = _BUILDERS["2ai"]()
    mod = build_entry("2ai")
    with pytest.raises(ValueError, match="linearly dependent"):
        generator_v_matrix(g, [mod.h_coords[0], *mod.h_coords],
                           mod.V_coords, d14)


def test_a_generator_that_moves_the_split_is_refused():
    # 2ai is so(5) over so(3) on coordinates 3..5, with the generator
    # D14 = diag(1, -1, -1, -1, -1)
    g, _, ((_, d14, _),) = _BUILDERS["2ai"]()
    mod = build_entry("2ai")
    hmat, vvecs = mod.h_coords, mod.V_coords
    stretch = identity(5)
    stretch[0][0] = Fraction(2)
    with pytest.raises(ValueError, match="normalize the algebra"):
        generator_v_matrix(g, hmat, vvecs, stretch)
    # the swap of coordinates 1 and 3 carries so(3) off coordinates 3..5
    swap = identity(5)
    swap[0], swap[2] = swap[2], swap[0]
    with pytest.raises(ValueError, match="normalize the subalgebra"):
        generator_v_matrix(g, hmat, vvecs, swap)
    # D14 fixes h_0 and negates V, so it moves each v + h_0 off V + h_0
    shifted = [[x + y for x, y in zip(v, hmat[0])] for v in vvecs]
    generator_v_matrix(g, hmat, vvecs, d14)
    with pytest.raises(ValueError, match="preserve the complement"):
        generator_v_matrix(g, hmat, shifted, d14)


def test_the_split_and_each_generator_take_one_reader_of_h_plus_v(
        monkeypatch):
    # warm runs, the block readers built: a split eliminates once for the
    # complement (none when h = 0) and once for its reader of h + V, and a
    # generator only for that reader
    from g2forms import linalg

    calls = []
    real = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda rows: calls.append(1) or real(rows))
    for case, params in CATALOG_ROWS:
        if case == "so3_7":
            continue
        g, h, gens = _BUILDERS[case](*params)
        mod = reductive_complement(g, h)
        calls.clear()
        reductive_complement(g, h)
        assert len(calls) == (2 if h else 1), case
        for name, fmat, _ in gens:
            generator_v_matrix(g, mod.h_coords, mod.V_coords, fmat)
            calls.clear()
            generator_v_matrix(g, mod.h_coords, mod.V_coords, fmat)
            assert len(calls) == 1, (case, name)


def test_rep_property_check_raises_on_a_corrupted_action():
    mod = build_entry("1")
    g, hmat = mod.ambient, [list(h) for h in mod.h_coords]
    pairs = list(combinations(range(len(hmat)), 2))
    h_brackets = dict(zip(pairs, solve(
        transpose(hmat), [bracket(g, hmat[i], hmat[j]) for i, j in pairs])))
    assert any(any(c) for c in h_brackets.values())
    action = [mat(a) for a in mod.action]
    _check_rep_property(action, h_brackets)
    # one entry of one action matrix off by one breaks some bracket
    for k in range(len(action)):
        for r in range(mod.dimV):
            for c in range(mod.dimV):
                bad = [[row[:] for row in a] for a in action]
                bad[k][r][c] += 1
                with pytest.raises(AssertionError,
                                   match="isotropy action violates"):
                    _check_rep_property(bad, h_brackets)


def test_the_split_checks_its_integer_action_against_its_h_brackets(
        monkeypatch):
    # the check sees the action in integers over one q, which the module
    # holds divided by q, and one entry of it off by one ends the split
    from g2forms import liealg

    g, h, _ = _BUILDERS["1"]()
    mod = reductive_complement(g, h)
    real, seen = liealg._check_rep_property, []

    def corrupted(action, h_brackets):
        seen.append([[row[:] for row in a] for a in action])
        action[0][0][1] += 1
        real(action, h_brackets)

    monkeypatch.setattr(liealg, "_check_rep_property", corrupted)
    with pytest.raises(AssertionError, match="isotropy action violates"):
        reductive_complement(g, h)
    (action,) = seen
    pairs = [(Fraction(m), x) for a, b in zip(mod.action, action)
             for mr, row in zip(a, b) for m, x in zip(mr, row)]
    assert all(type(x) is int and (m == 0) == (x == 0) for m, x in pairs)
    assert len({m / x for m, x in pairs if x}) == 1


# ---------------------------------------------------------------------------
# the integer invariant-theory systems against Fraction references
# ---------------------------------------------------------------------------

def _commutant_reference(action, gram):
    """{C : A C - C A = 0, G C symmetric} with Fraction rows: the column of
    unknown C_kl is the image of the unit matrix E_kl."""
    n = len(gram)
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cols = []
    for kl in range(n * n):
        e = [[Fraction(0)] * n for _ in range(n)]
        e[kl // n][kl % n] = Fraction(1)
        col = [x for a in action
               for row in mat_sub(mat_mul(mat(a), e), mat_mul(e, mat(a)))
               for x in row]
        ge = mat_mul(mat(gram), e)
        cols.append(col + [ge[j][i] - ge[i][j] for i, j in upper])
    return [[[v[i * n + j] for j in range(n)] for i in range(n)]
            for v in nullspace(transpose(cols))]


def _symmetric_forms_reference(action, generators, n):
    """{S = S^T : A^T S + S A = 0, F^T S F = S} with Fraction rows: the
    column of unknown s_kl (k <= l) is the image of the symmetric unit."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    cols = []
    for k, l in pairs:
        e = [[Fraction(0)] * n for _ in range(n)]
        e[k][l] = e[l][k] = Fraction(1)
        col = []
        for a in map(mat, action):
            img = mat_mul(transpose(a), e)
            col += [img[i][j] + img[j][i] for i, j in pairs]
        for f in map(mat, generators):
            img = mat_sub(mat_mul(mat_mul(transpose(f), e), f), e)
            col += [img[i][j] for i, j in pairs]
        cols.append(col)
    vecs = nullspace(transpose(cols))
    return [[[v[pairs.index((min(i, j), max(i, j)))] for j in range(n)]
             for i in range(n)] for v in vecs]


@pytest.mark.parametrize("label,action,gram", SO_FORM_ACTIONS,
                         ids=[c[0] for c in SO_FORM_ACTIONS])
def test_commutant_matches_a_fraction_reference(label, action, gram):
    # for an invariant definite gram G, G^-1 times the invariant symmetric
    # forms spans the self-adjoint commutant
    assert any(x.denominator > 1 for a in action for row in a for x in row)
    ginv = inverse(gram)
    got = [mat_mul(ginv, s) for s in _invariant_symmetric_forms(action, [])]
    ref = _commutant_reference(action, gram)
    assert len(got) == len(ref) == {"3+3": 3, "3+1+1": 4}.get(label, 1)
    flat = [[x for row in c for x in row] for c in got + ref]
    assert rank(flat) == rank(flat[:len(got)]) == len(ref)


@pytest.mark.parametrize("label,action,gram", SO_FORM_ACTIONS,
                         ids=[c[0] for c in SO_FORM_ACTIONS])
def test_irreducible_dims_of_the_so_form_actions(label, action, gram):
    mod = module_from_action(label, action, gram=gram)
    assert irreducible_dims(mod) == {"3+3": [3, 3], "3+1+1": [1, 1, 3]}.get(
        label, [len(gram)])


@pytest.mark.parametrize("label,action,gram", SO_FORM_ACTIONS,
                         ids=[c[0] for c in SO_FORM_ACTIONS])
def test_invariant_symmetric_forms_match_a_fraction_reference(
        label, action, gram):
    n = len(gram)
    got = _invariant_symmetric_forms(action, [])
    assert got == _symmetric_forms_reference(action, [], n)
    assert len(got) == {"3+3": 3, "3+1+1": 4}.get(label, 1)
    # generators alone, and with the action conjugated alike
    gens, p, pinv = _conjugated_generators(n)
    conj = [mat_mul(mat_mul(p, a), pinv) for a in action]
    got = _invariant_symmetric_forms([], gens, n=n)
    assert got == _symmetric_forms_reference([], gens, n)
    assert got
    got = _invariant_symmetric_forms(conj, gens, n=n)
    assert got == _symmetric_forms_reference(conj, gens, n)


@pytest.mark.parametrize("case,params", CATALOG_ROWS, ids=CATALOG_IDS)
def test_invariant_kforms_match_the_per_form_reference(case, params):
    mod = build_entry(case, params)
    for k in range(mod.dimV + 1):
        assert invariant_kforms(mod, k) == _kform_reference(mod, k), k


@pytest.mark.parametrize("case,params", CATALOG_ROWS, ids=CATALOG_IDS)
def test_d1_and_kernel_dim_match_the_dense_route_on_every_row(case, params):
    mod = build_entry(case, params)
    assert invariant_dims(mod).d1 == dense_d1(mod)
    assert mod.kernel_dim() == dense_kernel_dim(mod)


# ---------------------------------------------------------------------------
# the family Hitchin map against the per-sample classifier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_invariant_form_types_matches_a_classify_coeffs_loop(
        scanned_families, seed):
    # the reference loop applies the scan's stop rule: it ends once each
    # class is witnessed or excluded by one of the report's certificates
    config = ScanConfig(grid=300, random=100, seed=seed)
    for label, mod, bvecs in scanned_families:
        rep = invariant_form_types(mod, config)
        done = set(rep["certificate"])
        ref = {"has_definite": False, "has_indefinite": False, "samples": 0,
               "definite_witness": None, "indefinite_witness": None}
        for coeffs in _scan_samples(len(bvecs), config):
            if len(done) == 2:
                break
            if not any(coeffs):
                continue
            ref["samples"] += 1
            cls = classify_coeffs(_sample_vec(coeffs, bvecs))
            if cls is Orbit3Class.DEFINITE and "definite" not in done:
                done.add("definite")
                ref.update(has_definite=True, definite_witness=list(coeffs))
            elif cls is Orbit3Class.INDEFINITE and "indefinite" not in done:
                done.add("indefinite")
                ref.update(has_indefinite=True, indefinite_witness=list(coeffs))
        assert {k: rep[k] for k in ref} == ref, label


# ---------------------------------------------------------------------------
# exact exclusions: the Schur obstruction and a common kernel
# ---------------------------------------------------------------------------

DEFINITE_ONLY = {"2d": [7], "7": [7], "so3_7": [7], "8-g2xR": [1, 6],
                 "8-su4": [1, 6]}


@pytest.mark.parametrize("case", sorted(DEFINITE_ONLY))
def test_schur_exclusion_fires_on_the_definite_only_rows(case):
    mod = build_entry(case)
    cert = {"kind": "schur", "irreducible_dims": DEFINITE_ONLY[case]}
    assert schur_exclusion(mod).to_json() == cert
    rep = invariant_form_types(mod, SMALL_SCAN)
    assert {cls: c.to_json() for cls, c in rep["certificate"].items()} == {
        "indefinite": cert}
    assert rep["has_definite"] is True and not rep["has_indefinite"]


def test_sparse_rechecks_match_the_dense_monomial_matrices(
        scanned_families, degenerate_families):
    # kills and isotropic read the sparse terms; the dense products decide
    # the same on seeded small vectors, unit vectors and the certificates
    rng = random.Random(5)
    units = [[int(i == j) for j in range(7)] for i in range(7)]
    maps = [family_hitchin_map(bvecs) for _, _, bvecs in scanned_families]
    maps += [hitchin for _, hitchin, _, _ in degenerate_families.values()]
    for hitchin in maps:
        mats = _monomial_matrices(hitchin)
        vecs = units + [[rng.randint(-1, 1) for _ in range(7)]
                        for _ in range(20)]
        vecs += hitchin.common_kernel()
        for v in vecs:
            assert hitchin.kills(v) == all(
                mat_vec(m, v) == [0] * 7 for m in mats)
        # w^T M u for every monomial, on the units and six seeded vectors
        ws = vecs[:13]
        zero = [[all(sum(x * y for x, y in zip(w, mat_vec(m, u))) == 0
                     for m in mats) for u in ws] for w in ws]
        for k in range(1, 4):
            for sub in combinations(range(len(ws)), k):
                assert hitchin.isotropic([ws[a] for a in sub]) == all(
                    zero[a][b] for a in sub for b in sub)


def test_certified_exclusions_hold_on_a_full_default_scan(
        scanned_families):
    # every exclusion on the shipped catalog and its rejected generators,
    # against a full scan with no early stop: the default grid, and for
    # d = 2 and 3 the old boxes of 12,176 and 37,441 rays
    excluded = {}
    for label, mod, bvecs in scanned_families:
        config = ScanConfig(grid={2: 12_176, 3: 37_441}.get(len(bvecs),
                                                           10_000))
        rep = invariant_form_types(mod, config)
        if not rep["certificate"]:
            continue
        excluded[label] = set(rep["certificate"])
        hitchin = family_hitchin_map(bvecs)
        for coeffs in _scan_samples(len(bvecs), config):
            if any(coeffs):
                cls = classify_hitchin(hitchin(coeffs)).value
                assert cls not in excluded[label], (label, coeffs)
    both = {"definite", "indefinite"}
    assert excluded == {
        "2d": {"indefinite"}, "7": {"indefinite"}, "so3_7": {"indefinite"},
        "8-su4": {"indefinite"}, "8-g2xR": {"indefinite"},
        "4ii(0, 0)+B23-swap": both, "6ii+R5-fixing-rotation": both}


# ---------------------------------------------------------------------------
# sparse structure constants against dense commutators
# ---------------------------------------------------------------------------

ALGEBRA_NAMES = ([f"so({n})" for n in range(2, 8)]
                 + [f"su({n})" for n in range(2, 5)]
                 + [f"u({n})" for n in range(1, 5)]
                 + ["sp(1)", "sp(2)"] + [f"t({k})" for k in range(1, 8)])


def _assert_dense_structure_constants(alg):
    # the basis cleared once to integer matrices B_k = L b_k: the dense
    # commutators run on ints, and [b_i, b_j] = [B_i, B_j] / L^2
    n = alg.size
    rows, den = cleared([row for b in alg.basis for row in b])
    ints = [rows[k * n:(k + 1) * n] for k in range(alg.dim)]
    struct = alg.structure_constants()
    for i, j in combinations(range(alg.dim), 2):
        coords = alg.coords(commutator(ints[i], ints[j]))
        assert coords is not None, (alg.name, i, j)
        assert struct[i][j] == [c / den ** 2 for c in coords], (
            alg.name, i, j)
        assert struct[j][i] == [-c for c in struct[i][j]]


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_structure_constants_match_dense_commutators(name):
    _assert_dense_structure_constants(build_algebra(name))


@pytest.mark.parametrize("case", sorted(_BUILDERS))
def test_builder_structure_constants_match_dense_commutators(case):
    from g2forms.catalog import load_catalog

    params = next(tuple(e["params"]) for e in load_catalog()
                  if e["case"] == case)
    g, _, _ = _BUILDERS[case](*params)
    _assert_dense_structure_constants(g)


def test_unclosed_basis_leaves_the_span():
    e12 = [[0, 1], [0, 0]]
    e21 = [[0, 0], [1, 0]]
    alg = MatrixLieAlgebra.from_basis("e12+e21", [e12, e21])
    assert alg.coords([[1, 0], [0, -1]]) is None
    with pytest.raises(ValueError, match="leaves the span"):
        alg.structure_constants()


# ---------------------------------------------------------------------------
# the height-ordered witness grid
# ---------------------------------------------------------------------------

def _row_grid(d, budget):
    """The box of the former d = 2 and 3 grids, row by row: every primitive
    ray with max |coeff| <= n, n = 2 floor(sqrt(budget) / 2) for d = 2 and
    2 round(budget^(1/3) / 2) for d = 3 (at least 1), last nonzero
    coordinate positive."""
    if d == 2:
        n = max(1, int(math.isqrt(budget) // 2) * 2)
        return [(p, q) for q in range(0, n + 1) for p in range(-n, n + 1)
                if (p, q) != (0, 0) and not (q == 0 and p < 0)
                and math.gcd(abs(p), q) == 1]
    n = max(1, round(budget ** (1 / 3) / 2) * 2)
    return [(p, q, r) for r in range(0, n + 1) for q in range(-n, n + 1)
            for p in range(-n, n + 1)
            if (p, q, r) != (0, 0, 0)
            and not (r == 0 and (q < 0 or (q == 0 and p < 0)))
            and math.gcd(math.gcd(abs(p), abs(q)), r) == 1]


def _height(v):
    return max(map(abs, v))


@pytest.mark.parametrize("budget", [0, 1, 8, 100, 10_000])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 13, 17])
def test_ray_grid_walks_one_order_in_every_dimension(d, budget):
    rays = list(_ray_grid(d, budget))
    assert len(set(rays)) == len(rays)
    for v in rays:
        assert len(v) == d and math.gcd(*v) == 1, v
        assert next(x for x in reversed(v) if x) > 0, v
    # by height shell, and inside a shell by support size, largest first
    keys = [(_height(v), -sum(map(bool, v))) for v in rays]
    assert keys == sorted(keys)
    # a smaller budget takes a prefix of the same walk
    assert rays == list(_ray_grid(d, 10_000))[:budget]
    # the one ray of d = 1 ends the walk: its height-2 shell is empty
    assert len(rays) == (min(budget, 1) if d == 1 else budget)
    if d in (2, 3) and budget == 10_000:
        # the shells of height <= n fill the old box of half-width n first
        box = _row_grid(d, budget)
        assert len(box) == {2: 12_176, 3: 37_441}[d]
        assert set(_ray_grid(d, len(box))) == set(box)


def test_every_small_family_is_witnessed_in_the_height_one_shell():
    # every family of the shipped table below the whole space, candidate
    # modules included: at the default grid with no random draws each class
    # left open has a height-1 witness, found within 42 samples and within
    # the height-1 shell, (3^d - 1) / 2 rays
    config = ScanConfig(random=0)
    seen = set()
    for e in CATALOG:
        mod = build_entry(e["case"], tuple(e["params"]))
        for m in [mod] + [candidate_module(mod, name, fmat)
                          for name, fmat, _ in mod.pending_generators]:
            if not 1 <= len(invariant_3forms(m)) < 35:
                continue
            seen.add(m.label)
            rep = invariant_form_types(m, config)
            assert rep["samples"] <= min(42, (3 ** rep["dim"] - 1) // 2), \
                m.label
            for cls in {"definite", "indefinite"} - set(rep["certificate"]):
                assert rep[f"has_{cls}"] is True, (m.label, cls)
                assert _height(rep[f"{cls}_witness"]) == 1, (m.label, cls)
    assert seen == {
        "1", "2ai", "2ci", "2cii", "2aiii", "3bii(1, 1)", "3biii(1, 3)",
        "3biii(1, -3)", "3aiii", "4i", "4ii(0, 0)", "4ii(0, 0)+B23-swap",
        "4ii(1, -1)", "5i(0, 0)", "5ii(1, 2, -3)", "5ii(1, 1, -2)", "2d",
        "7", "8-su4", "8-g2xR", "8-g2xR+D7", "6ii+R5-fixing-rotation",
        "6iii+diagonal-rotation", "6iii+cyclic-pair-rotation", "so3_7"}


# ---------------------------------------------------------------------------
# the integer Lie-algebra build against the Fraction reference
# ---------------------------------------------------------------------------

def _ref_sparse(m):
    return {(r, c): Fraction(v) for r, row in enumerate(m)
            for c, v in enumerate(row) if v}


def _ref_sparse_mul(a, b):
    out = {}
    for (r, k), v in a.items():
        for (k2, c), w in b.items():
            if k == k2:
                out[r, c] = out.get((r, c), 0) + v * w
    return {rc: v for rc, v in out.items() if v}


def _ref_sparse_commutator(a, b):
    ab, ba = _ref_sparse_mul(a, b), _ref_sparse_mul(b, a)
    out = {rc: ab.get(rc, 0) - ba.get(rc, 0) for rc in ab.keys() | ba.keys()}
    return {rc: v for rc, v in out.items() if v}


class _FractionAlgebra:
    """The Fraction build: coordinates through the inverse of the pivot
    submatrix and an exact span check, the structure constants one
    coordinate read per commutator, the trace form -tr(b_i b_j) and the
    bracket on Fraction coordinate vectors."""

    def __init__(self, alg):
        self.dim, n = alg.dim, alg.size
        self.basis = [_ref_sparse(b) for b in alg.basis]
        flat = [[x for row in b for x in row] for b in alg.basis]
        _, pivots = rref(flat)
        self.cells = [divmod(p, n) for p in pivots]
        self.inv = inverse([[flat[r][p] for r in range(self.dim)]
                            for p in pivots])
        self.struct = [[None] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            self.struct[i][i] = [Fraction(0)] * self.dim
            for j in range(i + 1, self.dim):
                c = self.coords(_ref_sparse_commutator(self.basis[i],
                                                       self.basis[j]))
                self.struct[i][j] = c
                self.struct[j][i] = [-x for x in c]
        self.gram = [[-sum((x[r, c] * y.get((c, r), 0) for r, c in x),
                           Fraction(0)) for y in self.basis]
                     for x in self.basis]

    def coords(self, x):
        xp = [(k, x[rc]) for k, rc in enumerate(self.cells) if rc in x]
        c = [sum((row[k] * v for k, v in xp), Fraction(0)) for row in self.inv]
        span = {}
        for ci, b in zip(c, self.basis):
            for rc, v in b.items():
                span[rc] = span.get(rc, 0) + ci * v
        return c if {rc: v for rc, v in span.items() if v} == x else None

    def bracket(self, x, y):
        out = [Fraction(0)] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in ys:
                s = xi * yj
                for k, c in enumerate(self.struct[i][j]):
                    if c:
                        out[k] += s * c
        return out

    def complement(self, h_elements):
        """(action, gram, brackets, h_coords, V_coords) of the split."""
        hmat = [self.coords(_ref_sparse(x)) for x in h_elements]
        vvecs = (nullspace([mat_vec(transpose(self.gram), h) for h in hmat])
                 if hmat else identity(self.dim))
        hdim, dimv = len(hmat), len(vvecs)
        basis = hmat + vvecs
        pairs = list(combinations(range(len(basis)), 2))
        comps = solve(transpose(basis),
                      [self.bracket(basis[i], basis[j]) for i, j in pairs])
        split = dict(zip(pairs, comps))
        action = [transpose([split[i, j][hdim:]
                             for j in range(hdim, hdim + dimv)])
                  for i in range(hdim)]
        brackets = {(i, j): split[hdim + i, hdim + j][hdim:]
                    for i, j in combinations(range(dimv), 2)}
        gram = [[sum(a * b for a, b in zip(mat_vec(self.gram, v), w))
                 for w in vvecs] for v in vvecs]
        return action, gram, brackets, hmat, vvecs

    def generator(self, hmat, vvecs, fmat):
        f = _ref_sparse(fmat)
        finv = _ref_sparse(inverse(mat(fmat)))
        adf = transpose([self.coords(_ref_sparse_mul(_ref_sparse_mul(f, b),
                                                     finv))
                         for b in self.basis])
        if hmat:
            assert solve(transpose(hmat),
                         [mat_vec(adf, h) for h in hmat]) is not None
        return transpose(solve(transpose(vvecs),
                               [mat_vec(adf, v) for v in vvecs]))


def _frozen(m):
    return tuple(tuple(row) for row in m)


def _assert_module_matches_the_reference(mod, ref, h_elements, gens):
    action, gram, brackets, hmat, vvecs = ref.complement(h_elements)
    assert mod.action == tuple(map(_frozen, action)), mod.label
    assert mod.gram == _frozen(gram), mod.label
    assert dict(mod.brackets) == {ij: tuple(c) for ij, c in brackets.items()}
    assert mod.h_coords == _frozen(hmat) and mod.V_coords == _frozen(vvecs)
    for name, fmat in gens:
        vmat = generator_v_matrix(mod.ambient, mod.h_coords, mod.V_coords,
                                  fmat)
        assert _frozen(vmat) == _frozen(ref.generator(hmat, vvecs, fmat)), (
            mod.label, name)


@pytest.mark.parametrize("case,params", [
    pytest.param(c, p, id=i) for (c, p), i in zip(CATALOG_ROWS, CATALOG_IDS)
    if c != "so3_7"])
def test_integer_build_matches_the_fraction_reference(case, params):
    # the ambient algebra, the module and every generator, accepted or
    # pending, against the Fraction build
    g, h, gens = _BUILDERS[case](*params)
    mod = build_entry(case, params)
    ref = _FractionAlgebra(g)
    assert mod.ambient.structure_constants() == ref.struct
    assert mod.ambient.trace_form() == ref.gram
    assert all(type(x) is Fraction for row in mod.ambient.trace_form()
               for x in row)
    assert [mod.ambient.coords(x) for x in h] == [
        ref.coords(_ref_sparse(x)) for x in h]
    _assert_module_matches_the_reference(
        mod, ref, h, [(name, f) for name, f, _ in gens])
    for name, fmat, _ in mod.pending_generators:
        cand = candidate_module(mod, name, fmat)
        assert cand.generators[-1][1] == _frozen(
            ref.generator(list(mod.h_coords), list(mod.V_coords), fmat))


def test_integer_build_of_a_rescaled_basis_matches_the_fraction_reference():
    # denominators in the basis, in h and in the generator: su(3) with
    # each basis matrix scaled by its own rational, h = su(2) with each
    # element rescaled, and a rotation by (3/5, 4/5) of the third complex
    # coordinate
    rng = random.Random(3)
    su3 = build_algebra("su(3)")
    scales = [Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 7]))
              for _ in su3.basis]
    g = MatrixLieAlgebra.from_basis("scaled su(3)", [
        [[s * x for x in row] for row in b] for s, b in zip(scales, su3.basis)])
    h = [[[Fraction(k + 2, 3) * x for x in row] for row in su3.basis[i]]
         for k, i in enumerate((0, 1, 6))]
    mod = reductive_complement(g, h, label="scaled")
    ref = _FractionAlgebra(g)
    assert g.blocks[0].ints[1] > 1
    assert g.structure_constants() == ref.struct
    assert g.trace_form() == ref.gram
    rot = identity(6)
    rot[4][4] = rot[5][5] = Fraction(3, 5)
    rot[4][5], rot[5][4] = Fraction(-4, 5), Fraction(4, 5)
    _assert_module_matches_the_reference(mod, ref, h, [("rot", rot)])


def _products_with_rational_factors():
    from g2forms.section5 import su2_t4_printed_constants

    form = orthogonal_algebra_of_form(_rational_form(3))
    sl2 = su2_t4_printed_constants().blocks[0]
    return [su2_t4_printed_constants(),
            product_algebra("so(3;form)+sl(2,R)+u(1)", [
                form, MatrixLieAlgebra("sl(2,R)", (sl2,)),
                build_algebra("u(1)")])]


@pytest.mark.parametrize("index", [0, 1])
def test_product_with_rational_factors_matches_the_fraction_reference(index):
    # the tables assembled block by block against the Fraction build on the
    # block-embedded basis, with basis denominators 2, and 83957 and 2
    g = _products_with_rational_factors()[index]
    ref = _FractionAlgebra(g)
    assert g.structure_constants() == ref.struct
    assert g.trace_form() == ref.gram
    rng = random.Random(index)
    for _ in range(5):
        c = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in g.basis]
        x = [[sum(ck * b[r][s] for ck, b in zip(c, g.basis))
              for s in range(g.size)] for r in range(g.size)]
        assert g.coords(x) == ref.coords(_ref_sparse(x)) == c
    assert [g.coords(b) for b in g.basis] == [
        ref.coords(_ref_sparse(b)) for b in g.basis]


def test_a_matrix_off_the_diagonal_blocks_has_no_coordinates():
    # one entry in the off-diagonal block of su(2)+t(1); the same matrix
    # without it is in the algebra
    g = build_algebra("su(2)+u(1)")
    ref = _FractionAlgebra(g)
    x = [list(row) for row in g.basis[0]]
    assert g.coords(x) == [1, 0, 0, 0]
    for r, c in ((0, 4), (5, 3)):
        y = [list(row) for row in x]
        y[r][c] = Fraction(1, 3)
        assert g.coords(y) is None
        assert ref.coords(_ref_sparse(y)) is None


def test_a_generator_swapping_two_blocks_matches_the_fraction_reference():
    # the swap of the two su(2) blocks of su(2)+su(2)+u(1) normalizes the
    # diagonal su(2); Ad_F carries each block's basis into the other block
    from g2forms.linalg import block_diag

    g = build_algebra("su(2)+su(2)+u(1)")
    su2 = build_algebra("su(2)").basis
    h = [block_diag([x, x, [[0, 0], [0, 0]]]) for x in su2]
    swap = block_diag([[[0] * 4 + [1 if j == i else 0 for j in range(4)]
                        for i in range(4)]
                       + [[1 if j == i else 0 for j in range(4)] + [0] * 4
                          for i in range(4)], identity(2)])
    mod = reductive_complement(g, h, label="2su2+u1 / su2")
    _assert_module_matches_the_reference(mod, _FractionAlgebra(g), h,
                                         [("swap", swap)])


def test_a_classical_algebra_is_one_shared_frozen_value():
    alg = build_algebra("su(2)")
    assert build_algebra("su(2)") is alg
    # a product holds the factor's block itself, tables and all
    assert build_algebra("su(2)+u(1)").blocks[0] is alg.blocks[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        alg.basis = ()
    with pytest.raises(TypeError):
        alg.basis[0][0][0] = Fraction(1)
    with pytest.raises(TypeError):
        alg.basis[0] = alg.basis[1]
