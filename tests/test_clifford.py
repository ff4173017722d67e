"""Symbolic Majorana algebra: canonical form, products, adjoints,
reflections."""

from fractions import Fraction

import numpy as np
import pytest

from vortexcert.clifford import (
    EXACT_I,
    EXACT_ONE,
    GaussianRational,
    MajoranaPolynomial,
    ReflectionMap,
    anticommutator,
    canonicalize,
    commutator,
    multiply,
)


def test_canonicalize_sorts_with_parity_sign():
    key, coeff = canonicalize((2, 1), 1)
    assert key == (1, 2)
    assert coeff == -1
    key, coeff = canonicalize((3, 1, 2), 1)
    # (3,1,2) -> (1,2,3) is an even permutation (two transpositions)
    assert key == (1, 2, 3)
    assert coeff == 1


def test_canonicalize_removes_squares():
    key, coeff = canonicalize((5, 5), 7)
    assert key == ()
    assert coeff == 7
    # c1 c0 c1 = -c0 c1 c1 = -c0
    key, coeff = canonicalize((1, 0, 1), 1)
    assert key == (0,)
    assert coeff == -1


def test_canonicalize_rejects_bad_indices():
    with pytest.raises(TypeError):
        canonicalize((0, "a"), 1)
    with pytest.raises(TypeError):
        canonicalize((True,), 1)
    with pytest.raises(ValueError):
        canonicalize((-1,), 1)


def test_gaussian_rational_arithmetic():
    z = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    w = GaussianRational(Fraction(2), Fraction(1, 3))
    assert (z + w).re == Fraction(5, 2)
    assert (z * w).im == Fraction(-1, 2)
    assert (EXACT_I * EXACT_I) == GaussianRational(-1)
    assert EXACT_I ** 4 == EXACT_ONE
    assert z.conjugate().im == Fraction(1, 3)
    assert z.to_complex() == complex(0.5, float(Fraction(-1, 3)))


def test_monomial_and_generator_constructors():
    c2 = MajoranaPolynomial.generator(2)
    assert c2 == MajoranaPolynomial.monomial((2,), EXACT_ONE)
    assert list(c2.terms()) == [(2,)]
    m = MajoranaPolynomial.monomial((3, 1), EXACT_ONE)
    assert m == MajoranaPolynomial.monomial((1, 3), -EXACT_ONE)
    assert MajoranaPolynomial.zero().is_zero
    assert list(MajoranaPolynomial.identity().terms()) == [()]


def test_anticommutators_are_two_delta():
    for i in range(4):
        for j in range(4):
            ci = MajoranaPolynomial.generator(i)
            cj = MajoranaPolynomial.generator(j)
            ac = anticommutator(ci, cj)
            if i == j:
                assert ac == 2 * MajoranaPolynomial.identity()
            else:
                assert ac.is_zero


def test_product_drops_zero_terms():
    c0 = MajoranaPolynomial.generator(0)
    c1 = MajoranaPolynomial.generator(1)
    p = c0 * c1 + c1 * c0  # anticommuting pair cancels
    assert p.is_zero


def test_adjoint_sign_rule():
    # reversing k factors picks up (-1)^{k(k-1)/2}
    for k, sign in ((0, 1), (1, 1), (2, -1), (3, -1), (4, 1), (5, 1)):
        m = MajoranaPolynomial.monomial(tuple(range(k)), EXACT_ONE)
        assert m.adjoint() == sign * m


def test_adjoint_is_involutive_and_antimultiplicative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = _random_poly(rng, 6)
        q = _random_poly(rng, 6)
        assert p.adjoint().adjoint() == p
        lhs = multiply(p, q).adjoint()
        rhs = multiply(q.adjoint(), p.adjoint())
        assert lhs == rhs


def test_hermitian_detection():
    c0 = MajoranaPolynomial.generator(0)
    c1 = MajoranaPolynomial.generator(1)
    assert (EXACT_I * (c0 * c1)).is_hermitian()
    assert not (c0 * c1).is_hermitian()
    assert MajoranaPolynomial.monomial((0, 1, 2, 3), -EXACT_ONE).is_hermitian()


def test_reflection_is_antilinear_involution():
    sigma = ReflectionMap({0: 2, 2: 0, 1: 3, 3: 1})
    p = MajoranaPolynomial.monomial((0, 1), GaussianRational(0, 1))
    q = p.reflect(sigma)
    # coefficient conjugated, indices relabelled 0->2, 1->3
    assert q == MajoranaPolynomial.monomial((2, 3), GaussianRational(0, -1))
    assert q.reflect(sigma) == p.adjoint().adjoint().reflect(sigma).reflect(sigma)
    assert p.reflect(sigma).reflect(sigma) == p


def test_reflection_map_must_be_involution():
    with pytest.raises(ValueError):
        ReflectionMap({0: 1, 1: 2, 2: 0})


def test_reflection_preserves_products_up_to_order():
    # theta(AB) = theta(A) theta(B): the index map keeps relative order
    sigma = ReflectionMap({i: i + 4 for i in range(4)} | {i + 4: i for i in range(4)})
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = _random_poly(rng, 4)
        q = _random_poly(rng, 4)
        lhs = multiply(p, q).reflect(sigma)
        rhs = multiply(p.reflect(sigma), q.reflect(sigma))
        assert lhs == rhs


def test_commutator_is_zero_exact_mode():
    c = [MajoranaPolynomial.generator(i) for i in range(4)]
    island = -EXACT_ONE * (c[0] * c[1] * c[2] * c[3])
    w = EXACT_I * (c[0] * c[1])
    assert commutator(island, w).is_zero
    assert not commutator(c[0], c[1]).is_zero


def test_exactness_tracking():
    exact = MajoranaPolynomial.monomial((0, 1), EXACT_I)
    mixed = exact + MajoranaPolynomial.monomial((2, 3), 0.5j)
    # a complex coefficient is stored as the exact value it already is
    assert mixed.coefficient((2, 3)) == GaussianRational(0, Fraction(1, 2))
    assert mixed.coefficient((0, 1)) == EXACT_I
    assert complex(mixed.coefficient((0, 1))) == 1j


def test_render_formats():
    assert MajoranaPolynomial.zero().render() == "(0.0,0.0)*1"
    assert MajoranaPolynomial.identity().render() == "(1.0,0.0)*1"
    m = MajoranaPolynomial.monomial((0, 2), EXACT_I)
    assert m.render() == "(0.0,1.0)*c0*c2"


def test_degree_and_parity_queries():
    p = (MajoranaPolynomial.monomial((0, 1), EXACT_ONE)
         + MajoranaPolynomial.monomial((0, 1, 2, 3), EXACT_ONE))
    assert p.degree() == 4
    assert p.parities() == {0}
    odd = p + MajoranaPolynomial.generator(5)
    assert odd.parities() == {0, 1}
    assert odd.support() == {0, 1, 2, 3, 5}


def _random_poly(rng, n_indices, n_terms=5):
    out = MajoranaPolynomial.zero()
    for _ in range(n_terms):
        deg = int(rng.integers(0, n_indices + 1))
        key = tuple(sorted(rng.choice(n_indices, size=deg, replace=False).tolist()))
        coeff = complex(rng.normal(), rng.normal())
        out = out + MajoranaPolynomial.monomial(key, coeff)
    return out


def test_product_matches_float_and_exact_routes():
    """The same product through exact and float coefficients is equal."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        keys = [tuple(sorted(rng.choice(6, size=2, replace=False).tolist()))
                for _ in range(3)]
        exact = MajoranaPolynomial.zero()
        floaty = MajoranaPolynomial.zero()
        for k in keys:
            exact = exact + MajoranaPolynomial.monomial(k, EXACT_I)
            floaty = floaty + MajoranaPolynomial.monomial(k, 1j)
        pe = multiply(exact, exact)
        pf = multiply(floaty, floaty)
        assert pe == pf


def _conjugated(p):
    return MajoranaPolynomial({k: c.conjugate() for k, c in p.terms().items()})


def test_relabel_with_conjugated_coefficients_is_reflect():
    # reflect is the linear relabelling composed with conjugation
    sigma = ReflectionMap({i: i + 4 for i in range(4)} | {i + 4: i for i in range(4)})
    perm = [sigma(i) for i in range(8)]
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = _random_poly(rng, 8)
        assert _conjugated(p).relabel(perm) == p.reflect(sigma)
        assert _conjugated(p.relabel(perm)) == p.reflect(sigma)


def test_relabel_is_linear_and_keeps_products():
    # a cyclic relabelling, not an involution: the map need not be a
    # ReflectionMap, and a mapping works as well as a sequence
    perm = [1, 2, 3, 4, 5, 0]
    rng = np.random.default_rng(12)
    for _ in range(10):
        p, q = _random_poly(rng, 6), _random_poly(rng, 6)
        assert (EXACT_I * p).relabel(perm) == EXACT_I * p.relabel(perm)
        assert multiply(p, q).relabel(perm) == multiply(p.relabel(perm),
                                                        q.relabel(perm))
        assert p.relabel(dict(enumerate(perm))) == p.relabel(perm)
    # c0 c5 -> c1 c0 = -c0 c1: the order is kept, then recanonicalized
    assert (MajoranaPolynomial.monomial((0, 5)).relabel(perm)
            == MajoranaPolynomial.monomial((0, 1), -1))
