import pytest
from hypothesis import given, strategies as st

from minkflow.errors import LightLikeDivision
from minkflow.hyperbolic import HyperbolicNumber, inverse, modulus, mul

ONE = HyperbolicNumber(1.0, 0.0)
H = HyperbolicNumber(0.0, 1.0)
# Conjugate idempotents spanning the light cone (the diagonal basis).
H_PLUS = HyperbolicNumber(0.5, 0.5)
H_MINUS = HyperbolicNumber(0.5, -0.5)

finite = st.floats(min_value=-1e8, max_value=1e8,
                   allow_nan=False, allow_infinity=False)
pairs = st.tuples(finite, finite)


def hn(pair):
    return HyperbolicNumber(*pair)


def test_mul_zero_divisors():
    z = mul(HyperbolicNumber(1, 1), HyperbolicNumber(1, -1))
    assert z.x == 0.0 and z.y == 0.0


def test_mul_h_squared():
    assert mul(H, H) == ONE


def test_mul_difference_of_squares():
    z = mul(HyperbolicNumber(2, 1), HyperbolicNumber(2, -1))
    assert z == HyperbolicNumber(3, 0)


def test_inverse_examples():
    z = inverse(HyperbolicNumber(2, 1))
    assert z == HyperbolicNumber(2 / 3, -1 / 3)
    assert inverse(ONE) == ONE
    w = mul(HyperbolicNumber(2, 1), z)
    assert abs(w.x - 1) < 1e-15 and abs(w.y) < 1e-15


def test_inverse_light_like_raises():
    with pytest.raises(LightLikeDivision):
        inverse(HyperbolicNumber(1, 1))
    with pytest.raises(LightLikeDivision):
        inverse(HyperbolicNumber(3, -3))


def test_diagonal_basis_idempotents():
    assert mul(H_PLUS, H_PLUS) == H_PLUS
    assert mul(H_MINUS, H_MINUS) == H_MINUS
    z = mul(H_PLUS, H_MINUS)
    assert z.x == 0.0 and z.y == 0.0


@given(pairs, pairs)
def test_modulus_multiplicative(p1, p2):
    z1, z2 = hn(p1), hn(p2)
    lhs = modulus(mul(z1, z2)) ** 2
    rhs = (modulus(z1) * modulus(z2)) ** 2
    # The product's components are rounded sums of four products, so the
    # achievable accuracy is relative to the term magnitudes, not to the
    # (possibly cancelled) result.
    scale = ((abs(z1.x) + abs(z1.y)) * (abs(z2.x) + abs(z2.y))) ** 2
    assert abs(lhs - rhs) <= 1e-13 * (scale + 1.0)


@given(pairs, pairs)
def test_conjugation_ring_homomorphism(p1, p2):
    z1, z2 = hn(p1), hn(p2)
    lhs = mul(z1, z2).conj()
    rhs = mul(z1.conj(), z2.conj())
    assert lhs == rhs  # identical float operations, bitwise equal


@given(pairs)
def test_conjugation_involution(p):
    z = hn(p)
    assert z.conj().conj() == z


@given(pairs, pairs)
def test_diagonal_mul_componentwise(p1, p2):
    z1, z2 = hn(p1), hn(p2)
    z = mul(z1, z2)
    scale = (abs(z1.x) + abs(z1.y)) * (abs(z2.x) + abs(z2.y)) + 1.0
    assert abs(z.xi - z1.xi * z2.xi) <= 1e-14 * scale
    assert abs(z.eta - z1.eta * z2.eta) <= 1e-14 * scale


@given(pairs)
def test_diagonal_round_trip(p):
    z = hn(p)
    back = HyperbolicNumber.from_diagonal(z.xi, z.eta)
    # Exact in real arithmetic; in float64 the round trip is within one
    # ulp of the larger coordinate.
    scale = max(abs(z.x), abs(z.y), 1e-300)
    assert abs(back.x - z.x) <= 2.3e-16 * scale
    assert abs(back.y - z.y) <= 2.3e-16 * scale


def test_arithmetic_plumbing():
    z = HyperbolicNumber(1.5, -0.5)
    assert z + 1 == HyperbolicNumber(2.5, -0.5)
    assert 2 * z == HyperbolicNumber(3.0, -1.0)
    assert z - z == HyperbolicNumber(0.0, 0.0)
    assert (-z).y == 0.5
    w = z / HyperbolicNumber(2, 1)
    assert mul(w, HyperbolicNumber(2, 1)).x == pytest.approx(z.x)
