import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from unclosed.field import FieldElem, MINUS_PHI, ONE, PHI, PHI_INV, SQRT5, ZERO

# frozen from integer-sqrt oracle: isqrt(5 * 10**70)
SQRT5_DIGITS = "2.23606797749978969640917366873127623"


def random_elem(rng, size=6):
    return FieldElem(*(Fraction(rng.randint(-size, size), rng.randint(1, size)) for _ in range(2)))


def test_basis_products():
    assert SQRT5 * SQRT5 == FieldElem(5)
    assert ONE * SQRT5 == SQRT5
    assert SQRT5 ** 3 == FieldElem(0, 5)
    assert FieldElem(2, 3) * FieldElem(1, -1) == FieldElem(2 - 15, 1)


def test_addition_examples():
    assert ONE + SQRT5 == FieldElem(1, 1)
    rng = random.Random(7)
    for _ in range(50):
        x = random_elem(rng)
        assert x + ZERO == x
    # phi + 1/phi = sqrt5
    assert PHI + PHI_INV == SQRT5


def test_golden_ratio_relations():
    assert PHI * PHI == PHI + ONE
    assert PHI * PHI - PHI - ONE == ZERO
    assert PHI_INV == (SQRT5 - ONE) * Fraction(1, 2)
    assert PHI_INV + MINUS_PHI == -ONE
    assert PHI_INV * MINUS_PHI == -ONE


def test_field_axioms_random_triples():
    rng = random.Random(2024)
    for _ in range(60):
        a, b, c = (random_elem(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_division_and_pow():
    # the field has no inverse: a negative power raises instead of looping on n >>= 1
    for base, n in ((SQRT5, -2), (PHI, -3), (PHI, -1)):
        with pytest.raises(TypeError):
            base ** n


def test_embed_sqrt5_digits():
    val = SQRT5.embed(30)
    with mp.workdps(40):
        assert abs(val - mp.mpf(SQRT5_DIGITS)) < mp.mpf("1e-29")


def test_embed_b1_value():
    # 1/(8 sqrt5) = sqrt5/40
    x = SQRT5 * Fraction(1, 40)
    assert (SQRT5 * 8) * x == ONE
    assert abs(x.embed(10) - mp.mpf("0.05590169944")) < mp.mpf("5e-11")


def test_embed_zero_and_homomorphism():
    assert ZERO.embed(30) == 0
    rng = random.Random(5)
    for digits in (20, 40):
        with mp.workdps(digits + 20):
            for _ in range(20):
                a, b = random_elem(rng), random_elem(rng)
                lhs = (a * b).embed(digits)
                rhs = a.embed(digits) * b.embed(digits)
                bound = mp.mpf(10) ** (1 - digits) * (1 + abs(rhs))
                assert abs(lhs - rhs) < bound


def test_is_real():
    # the embedding is real: one mpf, with sqrt5 taken positive
    rng = random.Random(8)
    for _ in range(20):
        x = random_elem(rng)
        val = x.embed(30)
        assert isinstance(val, mp.mpf)
        with mp.workdps(40):
            p = mp.mpf(x.p.numerator) / x.p.denominator
            q = mp.mpf(x.q.numerator) / x.q.denominator
            assert abs(val - (p + q * mp.sqrt(5))) < mp.mpf("1e-29") * (1 + abs(p) + abs(q))
    assert MINUS_PHI.embed(30) < 0 < PHI_INV.embed(30) < 1 < PHI.embed(30)


def test_render():
    assert FieldElem(Fraction(3, 2)).render() == "3/2"
    assert (SQRT5 * Fraction(1, 40)).render() == "0 + 1/40*sqrt5"
    assert (-SQRT5).render() == "0 - 1*sqrt5"
    assert PHI.render() == "1/2 + 1/2*sqrt5"
    assert ZERO.render() == "0"


def test_immutability_and_hash():
    with pytest.raises(AttributeError):
        SQRT5.q = None
    assert hash(SQRT5) == hash(PHI + PHI_INV)
    assert hash(FieldElem(3)) == hash(SQRT5 * SQRT5 - FieldElem(2))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
field_elems = st.builds(FieldElem, rationals, rationals)


@given(field_elems, field_elems, field_elems)
def test_ring_axioms_property(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(field_elems, field_elems)
def test_embed_is_ring_homomorphism_property(a, b):
    with mp.workdps(60):
        ea, eb = a.embed(50), b.embed(50)
        for lhs, rhs in (((a + b).embed(50), ea + eb), ((a * b).embed(50), ea * eb)):
            assert abs(lhs - rhs) <= mp.mpf("1e-40") * (1 + abs(rhs))
