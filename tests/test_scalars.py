from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import reference_is_prime

from hopfcat.linalg import _rref
from hopfcat.scalars import (GF, QQ, Field, FieldMismatchError, FpElement,
                             is_prime, parse_field)


def test_rational_field_basics():
    assert QQ.zero == Fraction(0)
    assert QQ.one == Fraction(1)
    assert QQ.of(-3) == Fraction(-3)
    assert QQ.parse("-7/2") == Fraction(-7, 2)
    assert QQ.fmt(Fraction(6, 4)) == "3/2"
    assert QQ.fmt(Fraction(5)) == "5"


def test_prime_field_basics():
    f5 = GF(5)
    a = f5.parse("3")
    assert a + a == f5.of(1)
    assert a * a == f5.of(4)
    assert -a == f5.of(2)
    assert a / a == f5.one
    assert f5.fmt(a) == "3"
    assert (2 - a) == f5.of(4)
    assert 1 / a == f5.of(2)


def test_raw_form_round_trip_and_reduction():
    f5 = GF(5)
    assert f5.raw(f5.of(3)) == 3 and type(f5.raw(f5.of(3))) is int
    assert f5.lift(3) == f5.of(3) and isinstance(f5.lift(3), FpElement)
    # unreduced engine values: past p, negative, multiples of p dropped
    assert f5.reduce({0: 7, 1: 10, 2: -1, 3: 0}) == {0: 2, 2: 4}
    assert f5.fmt(-1) == "4" and f5.fmt(12) == "2"
    q = Fraction(-3, 2)
    assert QQ.raw(q) is q and QQ.lift(q) is q
    assert QQ.reduce({0: q, 1: Fraction(0)}) == {0: q}


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_mixed_moduli_rejected():
    with pytest.raises(FieldMismatchError):
        GF(5).of(1) + GF(7).of(1)
    with pytest.raises(FieldMismatchError):
        Fraction(1, 2) + GF(5).of(1)
    with pytest.raises(FieldMismatchError):
        GF(5).of(1) * Fraction(1, 2)


def test_fraction_into_prime_field_rejected():
    with pytest.raises(FieldMismatchError):
        GF(5).of(Fraction(1, 2))
    assert GF(5).of(Fraction(7)) == FpElement(2, 5)


def test_parse_field_descriptor():
    assert parse_field("q") == QQ
    assert parse_field("fp:11") == Field(11)
    with pytest.raises(ValueError):
        parse_field("r")


@given(st.integers(min_value=2, max_value=10_000))
def test_is_prime_matches_trial_division(n):
    naive = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert is_prime(n) == naive


@given(st.fractions(max_denominator=50))
def test_rational_serialization_roundtrip(q):
    assert QQ.parse(QQ.fmt(q)) == q


@given(st.one_of(st.integers(), st.integers(max_value=-1),
                 st.fractions().filter(lambda q: q.denominator != 1),
                 st.fractions()))
def test_rational_fmt_is_str_of_the_fraction(x):
    # fmt writes an int or a Fraction as itself, without a new Fraction;
    # the text must be that of the Fraction of the same value, for the raw
    # ints of the engine as for public scalars
    assert QQ.fmt(x) == str(Fraction(x))
    if isinstance(x, Fraction) and x.denominator == 1:
        assert QQ.fmt(x.numerator) == QQ.fmt(x)


@given(st.integers(), st.integers())
def test_fp_arithmetic_matches_ints(a, b):
    p = 13
    fa, fb = FpElement(a, p), FpElement(b, p)
    assert (fa + fb).value == (a + b) % p
    assert (fa - fb).value == (a - b) % p
    assert (fa * fb).value == (a * b) % p
    if b % p:
        assert ((fa / fb) * fb) == fa


def test_is_prime_matches_the_twelve_base_test():
    # every n below 2·10^5, two strong pseudoprimes to several small bases,
    # and primes just below 2^61 and 2^64
    ns = list(range(200_000)) + [3215031751, 3825123056546413051,
                                 2**61 - 1, 2**64 - 59]
    assert [is_prime(n) for n in ns] == [reference_is_prime(n) for n in ns]
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)


@given(st.sampled_from([5, 2**61 - 1]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, p - 1))))
def test_inverse_is_the_fermat_inverse(pv):
    p, v = pv
    inv = pow(v, p - 2, p)
    assert pow(v, -1, p) == inv
    assert FpElement(v, p).inverse() == FpElement(inv, p)
    # the pivot of a one-row rref is scaled by the inverse
    assert _rref(GF(p), [[v, 1]]) == ([[1, inv]], [0])
