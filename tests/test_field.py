import random
from fractions import Fraction

import mpmath as mp
import pytest

from unclosed.expansion import compute_expansion
from unclosed.field import FieldElem
from unclosed.sequences import polylog_delta

# frozen from integer-sqrt oracle: isqrt(5 * 10**70)
SQRT5_DIGITS = "2.23606797749978969640917366873127623"

SQRT5 = FieldElem(0, 1)
PHI = FieldElem(Fraction(1, 2), Fraction(1, 2))


def random_elem(rng, size=6):
    return FieldElem(*(Fraction(rng.randint(-size, size), rng.randint(1, size)) for _ in range(2)))


def test_embed_sqrt5_digits():
    val = SQRT5.embed(30)
    with mp.workdps(40):
        assert abs(val - mp.mpf(SQRT5_DIGITS)) < mp.mpf("1e-29")


def test_embed_b1_value():
    # b_1 = 1/(8 sqrt5) = sqrt5/40
    x = FieldElem(0, Fraction(1, 40))
    with mp.workdps(20):
        assert abs(x.embed(10) - 1 / (8 * mp.sqrt(5))) < mp.mpf("5e-11")
    assert abs(x.embed(10) - mp.mpf("0.05590169944")) < mp.mpf("5e-11")


def test_embed_zero_and_homomorphism():
    assert FieldElem(0).embed(30) == 0
    with pytest.raises(ValueError):
        FieldElem(1).embed(0)
    # additive in the coordinates: the embedding is Q-linear
    rng = random.Random(5)
    for digits in (20, 40):
        with mp.workdps(digits + 20):
            for _ in range(20):
                a, b = random_elem(rng), random_elem(rng)
                lhs = FieldElem(a.p + b.p, a.q + b.q).embed(digits)
                rhs = a.embed(digits) + b.embed(digits)
                bound = mp.mpf(10) ** (1 - digits) * (1 + abs(rhs))
                assert abs(lhs - rhs) < bound


def test_golden_ratio_relations():
    # qseries takes phi, 1/phi and -phi from mp.phi; at the 40 and 50 working
    # digits of minor_arc_check and log_poch_check they are the embedded literals
    phi_inv = FieldElem(Fraction(-1, 2), Fraction(1, 2))
    minus_phi = FieldElem(Fraction(-1, 2), Fraction(-1, 2))
    for dps in (40, 50):
        with mp.workdps(dps + 10):
            phi = PHI.embed(dps)
            assert phi == +mp.phi
            assert phi_inv.embed(dps) == mp.phi - 1
            assert minus_phi.embed(dps) == -mp.phi
            assert abs(phi * phi - phi - 1) < mp.mpf(10) ** -dps
            assert abs(phi * phi_inv.embed(dps) - 1) < mp.mpf(10) ** -dps


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
    minus_phi = FieldElem(Fraction(-1, 2), Fraction(-1, 2))
    phi_inv = FieldElem(Fraction(-1, 2), Fraction(1, 2))
    assert minus_phi.embed(30) < 0 < phi_inv.embed(30) < 1 < PHI.embed(30)


def test_render():
    assert FieldElem(Fraction(3, 2)).render() == "3/2"
    assert FieldElem(0, Fraction(1, 40)).render() == "0 + 1/40*sqrt5"
    assert FieldElem(0, -1).render() == "0 - 1*sqrt5"
    assert PHI.render() == "1/2 + 1/2*sqrt5"
    assert FieldElem(0).render() == "0"
    assert repr(PHI) == "FieldElem(1/2 + 1/2*sqrt5)"


def test_immutability_and_hash():
    with pytest.raises(AttributeError):
        SQRT5.q = None
    # a Fraction is reduced, and an int equals and hashes like the Fraction of
    # its value, so equal values hash alike
    assert FieldElem(Fraction(2, 4), Fraction(3, 3)) == FieldElem(Fraction(1, 2), 1)
    assert hash(SQRT5) == hash(FieldElem(Fraction(0), Fraction(3, 3)))
    assert hash(FieldElem(3)) == hash(FieldElem(Fraction(6, 2), 0))
    assert FieldElem(3) != FieldElem(0, 3)
    assert FieldElem(3) != 3
    assert FieldElem(0).is_zero() and not SQRT5.is_zero()


def test_field_elem_is_a_record():
    # a NamedTuple of (p, q): a tuple equal to its pair, copied with one
    # coordinate changed by _replace, with read-only fields
    assert isinstance(SQRT5, tuple)
    assert SQRT5 == (0, 1)
    assert SQRT5._replace(p=Fraction(1, 2)) == FieldElem(Fraction(1, 2), 1)
    with pytest.raises(AttributeError):
        SQRT5.p = 1


def test_every_producer_stores_exact_coordinates():
    # FieldElem stores its coordinates as given, so each producer must pass
    # an int or a Fraction; a float would embed and render inexactly
    result = compute_expansion(24)
    values = [polylog_delta(n) for n in range(65)] + list(result.b) + list(result.c)
    for x in values:
        assert {type(x.p), type(x.q)} <= {int, Fraction}, x
