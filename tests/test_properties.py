"""Property tests of the Majorana algebra against the Kronecker oracle.

Polynomials, mode counts and mirror maps are drawn by Hypothesis with a
derandomized search, so every run checks the same cases.  Coefficients
are small Gaussian integers stored as floats, which keeps every symbolic
identity exact and leaves only the matrix products to round-off.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexcert.clifford import MajoranaPolynomial, ReflectionMap, multiply, reflect
from vortexcert.fock import to_matrix

from conftest import oracle_matrix

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                             database=None)

_coefficients = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def polynomials(draw, n_modes):
    """Up to five terms; keys may repeat an index or come unsorted, so
    canonicalization is exercised too."""
    index = st.integers(0, 2 * n_modes - 1)
    terms = draw(st.dictionaries(
        st.lists(index, max_size=4).map(tuple), _coefficients, max_size=5))
    return MajoranaPolynomial(terms)


@st.composite
def mirrors(draw, n_modes):
    """An involution of the generator indices: disjoint swaps, the rest fixed."""
    order = draw(st.permutations(range(2 * n_modes)))
    swaps = draw(st.integers(0, n_modes))
    mapping = {i: i for i in order}
    for a, b in zip(order[0:2 * swaps:2], order[1:2 * swaps:2]):
        mapping[a], mapping[b] = b, a
    return ReflectionMap(mapping)


@st.composite
def cases(draw):
    n_modes = draw(st.integers(1, 3))
    return (n_modes, draw(polynomials(n_modes)), draw(polynomials(n_modes)),
            draw(mirrors(n_modes)), draw(_coefficients))


@PROPERTY_SETTINGS
@given(cases())
def test_to_matrix_is_a_homomorphism(case):
    n_modes, p, q, _, c = case
    mp, mq = oracle_matrix(p, n_modes), oracle_matrix(q, n_modes)
    assert np.allclose(to_matrix(p, n_modes).to_dense(), mp, atol=1e-12)
    product = to_matrix(multiply(p, q), n_modes).to_dense()
    assert np.allclose(product, mp @ mq, atol=1e-9)
    total = to_matrix(c * p + q, n_modes).to_dense()
    assert np.allclose(total, c * mp + mq, atol=1e-9)


@PROPERTY_SETTINGS
@given(cases())
def test_reflection_is_an_antilinear_involution(case):
    n_modes, p, q, theta, c = case
    assert reflect(reflect(p, theta), theta) == p
    linear = c.conjugate() * reflect(p, theta) + reflect(q, theta)
    assert reflect(c * p + q, theta) == linear
    # an algebra automorphism: the order of the factors is kept
    both = reflect(multiply(p, q), theta)
    assert both == multiply(reflect(p, theta), reflect(q, theta))
    assert np.allclose(oracle_matrix(both, n_modes),
                       oracle_matrix(reflect(p, theta), n_modes)
                       @ oracle_matrix(reflect(q, theta), n_modes), atol=1e-9)
