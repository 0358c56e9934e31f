import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2forms.linalg import identity, mat_mul
from g2forms.multilinear import pullback
from g2forms.octonion import (UnitQuaternion, chi_embedding, derivation_algebra,
                              derive_alignment, invariant_3form_ray,
                              is_automorphism, octonion_algebra, quat_mul,
                              FROZEN_ALIGNMENTS)
from g2forms.stable_forms import PHI, PHITILDE, annihilator_g2
from references import span_basis


def vec(*coords):
    return [Fraction(c) for c in coords]


def rand_unit(seed):
    rng = random.Random(seed)
    while True:
        q = [rng.randint(-5, 5) for _ in range(4)]
        if any(q):
            return UnitQuaternion.from_integers(*q)


def test_unit_element():
    for kind in ("compact", "split"):
        alg = octonion_algebra(kind)
        one = vec(1, 0, 0, 0, 0, 0, 0, 0)
        x = vec(0, 1, -2, 3, 0, 5, 7, -1)
        assert alg.multiply(one, x) == x
        assert alg.multiply(x, one) == x


def test_doubling_unit_squares():
    e = vec(0, 0, 0, 0, 1, 0, 0, 0)
    assert octonion_algebra("split").multiply(e, e)[0] == 1
    assert octonion_algebra("compact").multiply(e, e)[0] == -1


def test_associator_nonzero_across_the_double():
    alg = octonion_algebra("split")
    found = False
    basis = [vec(*[1 if k == i else 0 for k in range(8)]) for i in range(8)]
    for i in (1, 2, 3):
        for j in (4, 5, 6, 7):
            for k in range(1, 8):
                x, y, z = basis[i], basis[j], basis[k]
                lhs = alg.multiply(alg.multiply(x, y), z)
                rhs = alg.multiply(x, alg.multiply(y, z))
                if lhs != rhs:
                    found = True
    assert found


def test_alternative_law_on_basis_triples():
    # the associator [x, y, z] alternates: [x, x, z] = 0 = [x, z, z]
    for kind in ("compact", "split"):
        alg = octonion_algebra(kind)
        basis = [vec(*[1 if k == i else 0 for k in range(8)])
                 for i in range(8)]
        for x in basis:
            for z in basis:
                a1 = alg.multiply(alg.multiply(x, x), z)
                a2 = alg.multiply(x, alg.multiply(x, z))
                assert a1 == a2
                b1 = alg.multiply(alg.multiply(x, z), z)
                b2 = alg.multiply(x, alg.multiply(z, z))
                assert b1 == b2


def test_identity_is_automorphism_and_reflection_is_not():
    split = octonion_algebra("split")
    assert is_automorphism(split, identity(7))
    refl = [[Fraction(-1 if i == j == 0 else (1 if i == j else 0))
             for j in range(7)] for i in range(7)]
    assert not is_automorphism(split, refl)


def test_octonion_algebra_is_built_once_and_refuses_unknown_kinds():
    assert octonion_algebra("split") is octonion_algebra("split")
    with pytest.raises(ValueError):
        octonion_algebra("quaternion")


def test_unit_quaternion_validation():
    with pytest.raises(ValueError):
        UnitQuaternion((Fraction(1), Fraction(1), Fraction(0), Fraction(0)))
    q = UnitQuaternion.from_integers(1, 2, 3, 4)
    assert sum(x * x for x in q.q) == 1


def test_chi_kernel_and_identity():
    one = UnitQuaternion.from_integers(1, 0, 0, 0)
    minus = UnitQuaternion((Fraction(-1), Fraction(0), Fraction(0), Fraction(0)))
    assert chi_embedding(one, one) == identity(7)
    assert chi_embedding(minus, minus) == identity(7)


def test_chi_rational_pair_preserves_indefinite_reference():
    q = UnitQuaternion((Fraction(3, 5), Fraction(4, 5), Fraction(0), Fraction(0)))
    c = chi_embedding(q, q)
    assert pullback(c, PHITILDE) == PHITILDE
    assert is_automorphism(octonion_algebra("split"), c)


@pytest.mark.parametrize("seed", range(12))
def test_chi_is_automorphism_and_preserves_reference(seed):
    q1, q2 = rand_unit(seed), rand_unit(seed + 100)
    c = chi_embedding(q1, q2)
    assert is_automorphism(octonion_algebra("split"), c)
    assert pullback(c, PHITILDE) == PHITILDE


@pytest.mark.parametrize("seed", range(10))
def test_chi_homomorphism(seed):
    q1, q2 = rand_unit(seed), rand_unit(seed + 41)
    p1, p2 = rand_unit(seed + 83), rand_unit(seed + 131)
    lhs = chi_embedding(q1 * p1, q2 * p2)
    rhs = mat_mul(chi_embedding(q1, q2), chi_embedding(p1, p2))
    assert lhs == rhs


def test_chi_invariant_blocks():
    q1, q2 = rand_unit(7), rand_unit(19)
    c = chi_embedding(q1, q2)
    assert all(c[i][j] == 0 and c[j][i] == 0
               for i in range(3) for j in range(3, 7))
    # the 3-block is generically nontrivial
    q = rand_unit(3)
    c2 = chi_embedding(q, q2)
    assert any(c2[i][j] != 0 for i in range(3) for j in range(3)
               if i != j) or any(c2[i][i] != 1 for i in range(3))


def test_derivation_dimensions():
    for kind in ("compact", "split"):
        der = derivation_algebra(octonion_algebra(kind).table)
        assert len(der) == 14


def test_compact_derivations_equal_annihilator():
    der = derivation_algebra(octonion_algebra("compact").table)
    flat = lambda ms: [[m[r][c] for r in range(7) for c in range(7)]
                       for m in ms]
    assert span_basis(flat(der)) == span_basis(flat(annihilator_g2()))


def test_invariant_rays_are_references_in_aligned_basis():
    split = octonion_algebra("split")
    comp = octonion_algebra("compact")
    assert invariant_3form_ray(derivation_algebra(split.table)) == PHITILDE
    assert invariant_3form_ray(derivation_algebra(comp.table)) == PHI


def test_frozen_alignment_matches_rederivation():
    for kind in ("compact", "split"):
        assert derive_alignment(kind) == FROZEN_ALIGNMENTS[kind]


@settings(max_examples=25, deadline=None)
@given(st.tuples(*(st.integers(-4, 4) for _ in range(4))).filter(any),
       st.tuples(*(st.integers(-4, 4) for _ in range(4))).filter(any))
def test_chi_hypothesis_automorphism(a, b):
    q1 = UnitQuaternion.from_integers(*a)
    q2 = UnitQuaternion.from_integers(*b)
    c = chi_embedding(q1, q2)
    assert pullback(c, PHITILDE) == PHITILDE


def test_quaternion_multiplication_table():
    i = vec(0, 1, 0, 0)
    j = vec(0, 0, 1, 0)
    k = vec(0, 0, 0, 1)
    assert quat_mul(i, j) == k
    assert quat_mul(j, k) == i
    assert quat_mul(k, i) == j
    assert quat_mul(i, i) == vec(-1, 0, 0, 0)
