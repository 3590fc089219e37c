"""Binary64 operations against the independent rational oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fma_tv._bits import bits_of, float_from_hex, float_of_bits, hex_of, same_bits
from fma_tv.fp_semantics import (
    MAX_FINITE,
    MAX_SUBNORMAL,
    MIN_NORMAL,
    MIN_SUBNORMAL,
    Double,
    Poison,
    _round_ints,
    b64_add,
    b64_fma,
    b64_mul,
    b64_sub,
    is_finite,
    round_rational,
    round_rational_up,
    to_rational,
)
from oracles import (
    OVERFLOW_TIE,
    oracle_add,
    oracle_fma,
    oracle_mul,
    oracle_round_nearest,
    oracle_sub,
    same_float,
)
from strategies import any_double, finite_double

rationals = st.fractions(
    min_value=Fraction(-(2**1030)), max_value=Fraction(2**1030), max_denominator=2**1100
)


# ---------------------------------------------------------------------------
# bit codecs


def test_bit_codecs_roundtrip():
    for x in (0.0, -0.0, 1.0, -1.5, MIN_SUBNORMAL, MAX_FINITE, math.inf, math.nan):
        assert same_bits(float_of_bits(bits_of(x)), x)
        assert same_bits(float_from_hex(hex_of(x)), x)
    assert hex_of(1.0) == "0x3FF0000000000000"
    assert hex_of(-0.0) == "0x8000000000000000"
    with pytest.raises(ValueError):
        float_from_hex("0x3FF")
    with pytest.raises(ValueError):
        float_of_bits(1 << 64)


# ---------------------------------------------------------------------------
# stated operation examples


def test_add_examples():
    assert b64_add(1.0, 2.0) == 3.0
    assert math.isnan(b64_add(math.inf, -math.inf))
    s = b64_add(0.1, 0.2)
    assert s == 0.30000000000000004
    assert hex_of(s) == "0x3FD3333333333334"
    assert same_float(s, oracle_add(0.1, 0.2))


def test_mul_examples():
    assert b64_mul(2.0, 3.0) == 6.0
    assert same_bits(b64_mul(0.0, 5.0), 0.0)
    p = b64_mul(0.1, 0.2)
    assert hex_of(p) == "0x3F947AE147AE147C"
    assert same_float(p, oracle_mul(0.1, 0.2))


def test_sub_examples():
    assert same_bits(b64_sub(1.0, 1.0), 0.0)
    # 2**-60 is under half an ulp of 1.0, so the subtraction rounds back up
    d = b64_sub(1.0, 2.0**-60)
    assert same_float(d, oracle_sub(1.0, 2.0**-60))
    assert d == 1.0


def test_fma_examples():
    assert b64_fma(1.0, 1.0, 0.0) == 1.0
    assert b64_fma(0.0, 3.0, 2.5) == 2.5
    once = b64_fma(0.1, 0.2, 0.3)
    twice = b64_add(b64_mul(0.1, 0.2), 0.3)
    assert same_float(once, oracle_fma(0.1, 0.2, 0.3))
    assert hex_of(once) == "0x3FD47AE147AE147B"
    assert abs(bits_of(once) - bits_of(twice)) <= 1  # at most one rounding apart


def test_fma_single_rounding_witness():
    a = 1.0 + 2.0**-27
    c = -(1.0 + 2.0**-26)
    fused = b64_fma(a, a, c)
    separate = b64_add(b64_mul(a, a), c)
    assert fused == 2.0**-54
    assert separate == 0.0
    assert fused != separate
    assert same_float(fused, oracle_fma(a, a, c))


def test_fma_special_values():
    assert math.isnan(b64_fma(math.nan, 1.0, 1.0))
    assert math.isnan(b64_fma(math.inf, 0.0, 1.0))
    assert math.isnan(b64_fma(math.inf, 1.0, -math.inf))
    assert b64_fma(math.inf, 2.0, -1.0) == math.inf
    assert math.isnan(b64_fma(-math.inf, 2.0, math.inf))  # opposite-sign infinities
    assert b64_fma(-math.inf, -2.0, math.inf) == math.inf
    assert b64_fma(1.0, 1.0, math.inf) == math.inf
    assert b64_fma(1e308, 1e308, 0.0) == math.inf  # product overflow
    # zero-sign rules: product zero keeps -0 only when both addends are -0
    assert same_bits(b64_fma(-0.0, 5.0, -0.0), -0.0)
    assert same_bits(b64_fma(-0.0, 5.0, 0.0), 0.0)
    assert same_bits(b64_fma(0.0, 5.0, -0.0), 0.0)
    assert same_bits(b64_fma(1.0, 1.0, -1.0), 0.0)  # exact cancellation


def test_is_finite():
    assert is_finite(1.0)
    assert is_finite(0.0) and is_finite(-0.0)
    assert is_finite(MIN_SUBNORMAL) and is_finite(MAX_FINITE)
    assert not is_finite(math.inf)
    assert not is_finite(-math.inf)
    assert not is_finite(math.nan)


# ---------------------------------------------------------------------------
# reference rounding


def test_round_rational_examples():
    assert round_rational(Fraction(1, 2)) == 0.5
    assert hex_of(round_rational(Fraction(1, 3))) == "0x3FD5555555555555"
    assert round_rational(Fraction(2) ** 1024) == math.inf
    assert round_rational(-(Fraction(2) ** 1024)) == -math.inf


def test_round_rational_ties_to_even():
    # midpoint below an odd mantissa goes down, below an even one goes up
    assert round_rational(1 + Fraction(1, 2**53)) == 1.0
    assert same_bits(round_rational(1 + Fraction(3, 2**53)), 1.0 + 2.0**-51)
    # subnormal ties: 2**-1075 sits midway between 0 and the least subnormal
    assert same_bits(round_rational(Fraction(1, 2**1075)), 0.0)
    assert same_bits(round_rational(-Fraction(1, 2**1075)), -0.0)
    assert round_rational(Fraction(3, 2**1075)) == 2.0**-1073
    assert round_rational(Fraction(3, 2**1076)) == MIN_SUBNORMAL


def test_round_rational_overflow_threshold():
    just_under = OVERFLOW_TIE - Fraction(1, 2**200)
    assert round_rational(just_under) == MAX_FINITE
    assert round_rational(OVERFLOW_TIE) == math.inf
    assert round_rational(-OVERFLOW_TIE) == -math.inf
    assert round_rational(-just_under) == -MAX_FINITE


def test_round_rational_up_examples():
    assert round_rational_up(Fraction(0)) == 0.0
    assert round_rational_up(Fraction(1, 2)) == 0.5
    assert round_rational_up(Fraction(1, 2**1075)) == MIN_SUBNORMAL
    assert round_rational_up(Fraction(1, 2**5000)) == MIN_SUBNORMAL
    assert round_rational_up(Fraction(2) ** 2000) == math.inf
    assert round_rational_up(-(Fraction(2) ** 2000)) == -MAX_FINITE
    up = round_rational_up(Fraction(1, 3))
    assert hex_of(up) == "0x3FD5555555555556"


def test_to_rational():
    assert to_rational(0.5) == Fraction(1, 2)
    assert to_rational(MIN_SUBNORMAL) == Fraction(1, 2**1074)
    with pytest.raises(ValueError):
        to_rational(math.inf)
    with pytest.raises(ValueError):
        to_rational(math.nan)


@given(finite_double)
def test_round_rational_roundtrip(x):
    # rationals carry no zero sign, so -0.0 comes back as +0.0
    expected = 0.0 if x == 0.0 else x
    assert same_bits(round_rational(to_rational(x)), expected)
    assert same_bits(round_rational_up(to_rational(x)), expected)


@given(rationals)
def test_round_rational_matches_verified_oracle(q):
    assert same_float(round_rational(q), oracle_round_nearest(q, verify=True))


@given(rationals)
def test_round_rational_up_adjacency(q):
    up = round_rational_up(q)
    if math.isinf(up):
        assert q > Fraction(MAX_FINITE)
        return
    assert Fraction(up) >= q
    below = math.nextafter(up, -math.inf)
    if math.isfinite(below):
        assert Fraction(below) < q


TOP = (1 << 53) - 1  # the largest significand
# (n, k) for n / 2**k at the edges of the shift-and-mask split
POW2_EDGES = [
    (1, 0), (3, 2), (TOP, 0), (TOP << 971, 0), (1, 1074), (TOP >> 1, 1074),  # exact
    ((1 << 54) - 1, 0), ((1 << 54) - 1, 1),  # carry into the next binade
    (1, 1075), (3, 1075), (3, 1076), (1, 1076), (1, 5000),  # least subnormal ties
    ((1 << 53) - 1, 1075), ((1 << 52) - 1, 1074), ((1 << 105) - 1, 1126),  # normal boundary
    (1 << 1024, 0), (1 << 1947, 0), ((2 * TOP + 1) << 970, 0), ((4 * TOP + 1) << 969, 0),  # overflow
]


@pytest.mark.parametrize("n, k", POW2_EDGES + [(-n, k) for n, k in POW2_EDGES])
@pytest.mark.parametrize("to_nearest", [True, False], ids=["nearest", "up"])
def test_round_ints_power_of_two_edges_match_division(n, k, to_nearest):
    # a multiple of 3 in the denominator forces the divmod path
    assert same_bits(_round_ints(n, 1 << k, to_nearest), _round_ints(3 * n, 3 << k, to_nearest))


@given(
    st.integers(min_value=-(2**60), max_value=2**60),
    st.integers(min_value=0, max_value=1100),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=2300),
    st.booleans(),
)
def test_round_ints_power_of_two_matches_division(m, shift, nudge, k, to_nearest):
    n = (m << shift) + nudge
    assert same_bits(_round_ints(n, 1 << k, to_nearest), _round_ints(3 * n, 3 << k, to_nearest))


# ---------------------------------------------------------------------------
# operations against the oracle, full value domain


@given(any_double, any_double)
def test_add_matches_oracle(x, y):
    assert same_float(b64_add(x, y), oracle_add(x, y))


@given(any_double, any_double)
def test_sub_matches_oracle(x, y):
    assert same_float(b64_sub(x, y), oracle_sub(x, y))


@given(any_double, any_double)
def test_mul_matches_oracle(x, y):
    assert same_float(b64_mul(x, y), oracle_mul(x, y))


@settings(max_examples=300)
@given(any_double, any_double, any_double)
def test_fma_matches_oracle(a, b, c):
    assert same_float(b64_fma(a, b, c), oracle_fma(a, b, c))


@given(any_double, any_double)
def test_add_mul_commute(x, y):
    if not (math.isnan(x) or math.isnan(y)):
        assert same_bits(b64_add(x, y), b64_add(y, x))
        assert same_bits(b64_mul(x, y), b64_mul(y, x))


def test_fma_exact_fallback_matches_oracle():
    # the pure-rational implementation must hold on its own, not only when
    # libm happens to back it up
    from fma_tv.fp_semantics import _fma_exact

    cases = [
        (1.0 + 2.0**-27, 1.0 + 2.0**-27, -(1.0 + 2.0**-26)),
        (1e308, 2.0, -1.7e308),
        (2.0**-537, 2.0**-537, MIN_SUBNORMAL),
        (MAX_FINITE, MAX_FINITE, -MAX_FINITE),
        (-0.0, 5.0, -0.0),
        (math.inf, 0.0, 1.0),
        (math.nan, 1.0, 1.0),
    ]
    for a, b, c in cases:
        assert same_float(_fma_exact(a, b, c), oracle_fma(a, b, c))


# ---------------------------------------------------------------------------
# value domain


def test_double_bit_equality():
    assert Double(1.0) == Double(1.0)
    assert Double(0.0) != Double(-0.0)
    assert Double(math.nan) == Double(math.nan)
    assert Double(1.0) != Double(2.0)
    assert hash(Double(1.0)) == hash(Double(1.0))
    assert Double(1.0) != Poison()


def test_poison_type():
    assert Poison() == Poison()
    assert Poison().ty.value == "double"
