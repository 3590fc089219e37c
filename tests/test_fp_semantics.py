"""Binary64 operations against the independent rational oracle."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fma_tv
from fma_tv import fp_semantics
from fma_tv._bits import bits_of, float_from_hex, float_of_bits, hex_of, same_bits
from fma_tv.cli import special_values
from fma_tv.fp_semantics import (
    MAX_FINITE,
    MAX_SUBNORMAL,
    MIN_NORMAL,
    MIN_SUBNORMAL,
    Double,
    Poison,
    _fma_exact,
    _round_dyadic,
    b64_add,
    b64_fma,
    b64_mul,
    b64_sub,
    is_finite,
    round_rational_up,
    value_to_str,
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
from strategies import any_double, binade_double, finite_double

# n / 2**k, as every binary64, bound coefficient and magnitude is
dyadics = st.builds(
    lambda n, k: Fraction(n, 2**k), st.integers(min_value=-(2**1100), max_value=2**1100), st.integers(0, 2200)
)


# ---------------------------------------------------------------------------
# layering


def test_numeric_layer_does_not_import_the_ir_layer():
    # `_bits` serves both layers so that neither imports the other
    src = str(Path(fma_tv.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import fma_tv.fp_semantics, sys; print('fma_tv.ir_core' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# bit codecs


def test_bit_codecs_roundtrip():
    for x in (0.0, -0.0, 1.0, -1.5, MIN_SUBNORMAL, MAX_FINITE, math.inf, math.nan):
        assert same_bits(float_of_bits(bits_of(x)), x)
        assert same_bits(float_from_hex(hex_of(x)), x)
    assert hex_of(1.0) == "0x3FF0000000000000"
    assert hex_of(-0.0) == "0x8000000000000000"
    for text in ("0x3FF", "0x_FF0000000000000", "0x3FF0_00000000000", "0x3FF000000000000 "):
        with pytest.raises(ValueError):
            float_from_hex(text)
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


def dyadic(n: int, e: int) -> Fraction:
    return Fraction(n) * Fraction(2) ** e


def assert_least_at_or_above(up: float, q: Fraction):
    """`up` is the least binary64 that is >= q."""
    if math.isinf(up):
        assert up > 0 and q > Fraction(MAX_FINITE)
        return
    assert Fraction(up) >= q
    below = math.nextafter(up, -math.inf)
    if math.isfinite(below):
        assert Fraction(below) < q


TOP = (1 << 53) - 1  # the largest significand
# (n, k) for n / 2**k at the edges of the shift-and-mask split
POW2_EDGES = [
    (1, 0), (1, 1), (3, 2), (TOP, 0), (TOP << 971, 0), (1, 1074), (TOP >> 1, 1074),  # exact
    ((1 << 54) - 1, 0), ((1 << 54) - 1, 1),  # carry into the next binade
    ((1 << 53) + 1, 53), ((1 << 53) + 3, 53),  # ties to even at 1
    (1, 1075), (3, 1075), (3, 1076), (1, 1076), (1, 5000),  # least subnormal ties
    ((1 << 53) - 1, 1075), ((1 << 52) - 1, 1074), ((1 << 105) - 1, 1126),  # normal boundary
    (1 << 1024, 0), (1 << 1947, 0), (1 << 2000, 0), ((2 * TOP + 1) << 970, 0), ((4 * TOP + 1) << 969, 0),  # overflow
    (((2 * TOP + 1) << 1170) - 1, 200),  # just under the overflow tie
]


@pytest.mark.parametrize("n, k", POW2_EDGES + [(-n, k) for n, k in POW2_EDGES])
@pytest.mark.parametrize("to_nearest", [True, False], ids=["nearest", "up"])
def test_round_dyadic_edges_match_verified_oracle(n, k, to_nearest):
    q = dyadic(n, -k)
    if to_nearest:
        assert same_float(_round_dyadic(n, -k, True), oracle_round_nearest(q, verify=True))
    else:
        assert_least_at_or_above(_round_dyadic(n, -k, False), q)


def test_round_dyadic_examples():
    assert same_bits(_round_dyadic(-1, -1075, True), -0.0)  # a tie below the least subnormal keeps its sign
    assert _round_dyadic(3, -1075, True) == 2.0**-1073
    # either side of the overflow tie
    just_under = OVERFLOW_TIE - Fraction(1, 2**200)
    assert _round_dyadic(OVERFLOW_TIE.numerator, 0, True) == math.inf
    assert _round_dyadic(-just_under.numerator, -200, True) == -MAX_FINITE
    assert _round_dyadic(1, -5000, False) == MIN_SUBNORMAL
    assert _round_dyadic(1, 2000, False) == math.inf
    assert _round_dyadic(-1, 2000, False) == -MAX_FINITE


@given(
    st.integers(min_value=-(2**60), max_value=2**60),
    st.integers(min_value=0, max_value=1100),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=2300),
)
def test_round_dyadic_draws_match_verified_oracle(m, shift, nudge, k):
    n = (m << shift) + nudge
    q = dyadic(n, -k)
    assert same_float(_round_dyadic(n, -k, True), oracle_round_nearest(q, verify=True))
    assert_least_at_or_above(_round_dyadic(n, -k, False), q)


def test_round_rational_up_examples():
    assert round_rational_up(Fraction(0)) == 0.0
    assert round_rational_up(Fraction(1, 2)) == 0.5
    assert round_rational_up(7) == 7.0
    assert round_rational_up(Fraction(1, 2**1075)) == MIN_SUBNORMAL
    assert round_rational_up(-(Fraction(2) ** 2000)) == -MAX_FINITE


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(-5, 6), Fraction(1, 3 * 2**60)])
def test_round_rational_up_rejects_non_dyadic(q):
    with pytest.raises(ValueError, match="dyadic"):
        round_rational_up(q)


@given(finite_double)
def test_round_roundtrip(x):
    # rationals carry no zero sign, so -0.0 comes back as +0.0
    expected = 0.0 if x == 0.0 else x
    q = Fraction(x)
    n, e = q.numerator, 1 - q.denominator.bit_length()
    assert same_bits(_round_dyadic(n, e, True), expected)
    assert same_bits(round_rational_up(q), expected)


@given(dyadics)
def test_round_rational_up_adjacency(q):
    assert_least_at_or_above(round_rational_up(q), q)


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
    # the exact route must hold on its own, not only behind the inline routes
    cases = [
        (1.0 + 2.0**-27, 1.0 + 2.0**-27, -(1.0 + 2.0**-26)),
        (1e308, 2.0, -1.7e308),
        (2.0**-537, 2.0**-537, MIN_SUBNORMAL),
        (MAX_FINITE, MAX_FINITE, -MAX_FINITE),
        (-MAX_FINITE, MAX_FINITE, MAX_FINITE),
        (2.0**512, 2.0**512, -MAX_FINITE),
        (2.0**513, 2.0**512, -MAX_FINITE),
        (-0.0, 5.0, -0.0),
        (math.inf, 0.0, 1.0),
        (math.nan, 1.0, 1.0),
    ]
    for a, b, c in cases:
        assert same_float(_fma_exact(a, b, c), oracle_fma(a, b, c))
    # either side of the overflow shortcut, where the frexp exponents of a and b sum to 1027
    assert _fma_exact(2.0**512, 2.0**512, -MAX_FINITE) == 2.0**971
    assert _fma_exact(2.0**513, 2.0**512, -MAX_FINITE) == math.inf
    assert _fma_exact(-MAX_FINITE, MAX_FINITE, MAX_FINITE) == -math.inf


@given(st.integers(min_value=-(2**1200), max_value=2**1200), st.integers(min_value=-2400, max_value=1100))
def test_round_dyadic_matches_verified_oracle(n, e):
    q = dyadic(n, e)
    assert same_float(_round_dyadic(n, e, True), oracle_round_nearest(q, verify=True))
    assert_least_at_or_above(_round_dyadic(n, e, False), q)


# ---------------------------------------------------------------------------
# fma routes: every route of b64_fma bit-equal to the exact one and the oracle


def assert_fma_exact(a, b, c):
    got = b64_fma(a, b, c)
    assert same_bits(got, _fma_exact(a, b, c)), (a, b, c)
    assert same_float(got, oracle_fma(a, b, c)), (a, b, c)


_ULP27 = 1.0 + 2.0**-27
# a correct fma differs observably from mul-then-add here, plus zero-sign and
# wide-exponent cases
FMA_WITNESSES = [
    (_ULP27, _ULP27, -(1.0 + 2.0**-26)),
    (0.1, 0.2, 0.3),
    (1e308, 2.0, -1.7e308),
    (2.0**-537, 1.5 * 2.0**-538, 0.0),
    (2.0**-537, 2.0**-537, MIN_SUBNORMAL),
    (-3.0, 7.0, 2.5),
    (1.0, 1.0, -1.0),
    (0.0, -1.0, 0.0),
    (0.0, -1.0, -0.0),
    (MAX_FINITE, MAX_FINITE, -MAX_FINITE),
    (MAX_FINITE, 2.0, -MAX_FINITE),
]


@pytest.mark.parametrize("a, b, c", FMA_WITNESSES)
def test_fma_witness_triples(a, b, c):
    assert_fma_exact(a, b, c)


# the transform's guards: |a|, |b| < AB, LO <= |RN(a*b)| < HI, |c| < HI
AB, LO, HI = 2.0**995, 2.0**-968, 2.0**1021


def around(x):
    """`x` and its neighbours toward zero and away from it."""
    return (math.nextafter(x, 0.0), x, math.nextafter(x, math.copysign(math.inf, x)))


def cancelling(p):
    """-p and the 4 doubles either side of it."""
    out = [-p]
    for direction in (math.inf, -math.inf):
        c = -p
        for _ in range(4):
            c = math.nextafter(c, direction)
            out.append(c)
    return out


def guard_triples():
    """Operands, products and addends at each guard and one ulp either side."""
    factor_pairs = [(a, b) for a in around(AB) for b in (1.5, -1.0 - 2.0**-52, 1.3 * 2.0**-60)]
    # products at LO: from a normal, a power-of-two subnormal and an odd subnormal factor
    for a in (1.0, -3.0, 2.0**-1050, 3 * MIN_SUBNORMAL):
        b0 = LO / a
        factor_pairs += [(a, b) for b in around(b0) + around(math.nextafter(b0, 0.0))]
    factor_pairs += [(2.0**30, b) for b in around(HI / 2.0**30)]
    factor_pairs += [(-(1.0 + 2.0**-52), b) for b in around(HI)]
    # past the guards, where the split or the sums would overflow
    factor_pairs += [(a, 1.3 * 2.0**-60) for a in (*around(2.0**996), *around(2.0**997), MAX_FINITE)]
    factor_pairs += [(2.0**30, b) for b in (*around(2.0**992), *around(2.0**993))]
    tops = (*around(HI), *around(2.0**1022), *around(2.0**1023), MAX_FINITE)
    for a, b in factor_pairs:
        p = a * b
        for c in (1.0, -p * 3.0, *cancelling(p), *tops, *(-t for t in tops)):
            yield a, b, c


def test_fma_matches_exact_at_the_guards():
    triples = list(guard_triples())
    products = {abs(a * b) for a, b, _ in triples}
    assert {math.nextafter(LO, 0.0), LO, math.nextafter(LO, 1.0)} <= products
    assert {math.nextafter(HI, 0.0), HI, math.nextafter(HI, math.inf)} <= products
    for a, b, c in triples:
        assert_fma_exact(a, b, c)


def test_fma_routes_at_the_guards(monkeypatch):
    """One ulp inside each guard stays inline, the guard itself goes exact."""
    calls = []

    def counted(a, b, c):
        calls.append((a, b, c))
        return _fma_exact(a, b, c)

    monkeypatch.setitem(fp_semantics._FMA_NS, "fma_exact", counted)

    def exact_route(a, b, c):
        calls.clear()
        assert_fma_exact(a, b, c)
        return calls == [(a, b, c)]

    below = math.nextafter
    for x, b, c in ((AB, 1.5, 1.0), (-AB, 1.5, 1.0)):  # a factor
        assert not exact_route(below(x, 0.0), b, c) and exact_route(x, b, c)
        assert not exact_route(b, below(x, 0.0), c) and exact_route(b, x, c)
    assert not exact_route(1.0, LO, 1.0) and exact_route(1.0, below(LO, 0.0), 1.0)  # the product
    assert not exact_route(-1.0, LO, 1.0) and exact_route(-1.0, below(LO, 0.0), 1.0)
    assert not exact_route(2.0**30, below(2.0**991, 0.0), 1.0) and exact_route(2.0**30, 2.0**991, 1.0)
    for c in (HI, -HI):  # the addend
        assert not exact_route(1.5, 1.5, below(c, 0.0)) and exact_route(1.5, 1.5, c)
    # a zero factor and a zero addend are inline on finite operands only
    assert not exact_route(-0.0, MAX_FINITE, -0.0) and not exact_route(0.0, 5.0, -MAX_FINITE)
    assert exact_route(0.0, math.inf, 1.0) and exact_route(0.0, 5.0, math.inf)
    assert exact_route(0.0, 5.0, math.nan)
    assert not exact_route(MIN_SUBNORMAL, -MIN_SUBNORMAL, 0.0)  # an underflowed product keeps its sign
    assert exact_route(1e300, 1e300, 0.0) and exact_route(math.inf, 2.0, 0.0)


def tie_triples(rng):
    """a*b + c exactly halfway between two doubles, both ways of ties-to-even.

    The factors have 27-bit odd significands, the halves a Veltkamp split
    makes, so a*b is exact with 53 or 54 bits; c moves it within its binade
    by an even number of its last bits, or is a 53-bit c that a power-of-two
    product puts half an ulp off.
    """
    for _ in range(300):
        lo = 1 << 26
        a = float(rng.randrange(95 * lo // 67 | 1, 2 * lo, 2)) * 2.0 ** rng.randint(-500, 450)
        b = float(rng.randrange(95 * lo // 67 | 1, 2 * lo, 2)) * 2.0 ** rng.randint(-500, 450)
        m, e = math.frexp(a * b)
        step = math.ulp(a * b) / 2.0  # the exact product's last bit
        c = rng.choice((-1.0, 1.0)) * 2.0 * step * rng.randrange(1, 1 << 20)
        yield a, b, c
        u, v = rng.randint(-400, 400), rng.randint(-400, 400)
        d = float(rng.randrange(1 << 52, 1 << 53)) * 2.0 ** (u + v + 1)
        yield 2.0**u, rng.choice((-1.0, 1.0)) * 2.0**v, d


def test_fma_matches_exact_on_ties():
    rng = random.Random(3)
    triples = list(tie_triples(rng))
    for a, b, c in triples:
        q = Fraction(a) * Fraction(b) + Fraction(c)
        lo = oracle_round_nearest(q)
        # a tie: q sits halfway to the other neighbour of its rounding
        other = math.nextafter(lo, math.inf if Fraction(lo) < q else -math.inf)
        assert Fraction(lo) - q == q - Fraction(other), (a, b, c)
        assert_fma_exact(a, b, c)


def test_fma_matches_exact_a_product_tail_off_a_tie():
    """RN(a*b) + c is a tie that only the product's tail, one unit, breaks.

    The low parts then sum to a tie as well: rounded to nearest, not to odd,
    that sum drops the unit, and the fma rounds the first tie to even."""
    rng = random.Random(5)
    count = 0
    while count < 300:
        # in units of 2**(u+v): a*b == A*B == K * 2**53 + 1 with K odd, and c
        # == C * 2**54 keeps K * 2**53 + c inside [2**106, 2**107)
        A = rng.randrange(1 << 52, 1 << 53) | 1
        B = pow(A, -1, 1 << 53)
        K = A * B >> 53
        if B < 1 << 52 or K < 1 << 52 or not K & 1:
            continue
        C = rng.randrange(1 << 52, ((1 << 107) - (K << 53)) >> 54)
        u, v = rng.randint(-400, 400), rng.randint(-400, 400)
        sign = rng.choice((-1.0, 1.0))
        a, b, c = math.ldexp(A, u), sign * math.ldexp(B, v), sign * math.ldexp(C, u + v + 54)
        assert Fraction(a) * Fraction(b) - Fraction(a * b) == sign * Fraction(2) ** (u + v)
        assert_fma_exact(a, b, c)
        count += 1


def test_fma_matches_exact_near_cancellation():
    rng = random.Random(4)
    for _ in range(500):
        a = rng.choice((-1.0, 1.0)) * math.ldexp(1.0 + rng.getrandbits(52) * 2.0**-52, rng.randint(-1074, 1023))
        b = rng.choice((-1.0, 1.0)) * math.ldexp(1.0 + rng.getrandbits(52) * 2.0**-52, rng.randint(-1074, 1023))
        p = a * b
        if math.isfinite(p):
            for c in cancelling(p):
                assert_fma_exact(a, b, c)


def test_fma_matches_exact_at_zero_subnormal_and_overflow_results():
    cases = [
        (2.0**-600, 2.0**-480, -(2.0**-1080)),  # a subnormal result
        (3 * MIN_SUBNORMAL, 0.5, MIN_SUBNORMAL),  # subnormal operands, a tie at the least subnormal
        (2.0**-540, -(2.0**-540), 0.0),  # underflow to -0
        (2.0**-540, 2.0**-540, -0.0),
        (1.5, 1.5, -2.25),  # exact cancellation: +0
        (-1.5, 1.5, 2.25),
        (MAX_FINITE, 2.0, -MAX_FINITE),
        (MAX_FINITE, 1.0 + 2.0**-52, MAX_FINITE),  # overflow
        (-MAX_FINITE, 1.5, -MAX_FINITE),
        (2.0**994, 2.0**30, 2.0**1020),
        (MAX_FINITE, MAX_FINITE, -math.inf),
        (MIN_SUBNORMAL, -MIN_SUBNORMAL, MAX_SUBNORMAL),
    ]
    for x, y, z in cases:
        for a, b, c in ((x, y, z), (-x, y, -z), (y, x, z)):
            assert_fma_exact(a, b, c)


def test_fma_subnormal_results_stay_inline(monkeypatch):
    """Products in [LO, 2**-960) cancelled by c = -(a*b) down to a subnormal result.

    The inline route's final rounding then lands below MIN_NORMAL, where the
    spacing of doubles stops shrinking; every such triple must stay inline
    and round exactly as the exact route and the oracle do.  The result is
    the product's rounding error.  Any other double c is at least 2**-1021
    from -RN(a*b), more than that error can cancel, so it leaves a normal
    result."""
    calls = []
    monkeypatch.setitem(fp_semantics._FMA_NS, "fma_exact", lambda a, b, c: calls.append((a, b, c)))
    rng = random.Random(6)
    seen = set()
    for _ in range(6000):
        a = rng.choice((-1.0, 1.0)) * math.ldexp(1.0 + rng.getrandbits(52) * 2.0**-52, rng.randint(-600, -360))
        e = rng.randint(-968, -966) - math.frexp(a)[1]
        b = rng.choice((-1.0, 1.0)) * math.ldexp(1.0 + rng.getrandbits(52) * 2.0**-52, e)
        p = a * b
        want = _fma_exact(a, b, -p)
        if not LO <= abs(p) < 2.0**-960 or abs(want) >= MIN_NORMAL:
            continue
        seen.add((a, b))
        got = b64_fma(a, b, -p)
        assert same_bits(got, want), (a, b)
        assert same_float(got, oracle_fma(a, b, -p)), (a, b)
    assert calls == []
    assert len(seen) >= 1000


def test_fma_matches_exact_on_the_corpus():
    for a, b, c in itertools.product(special_values(), repeat=3):
        assert_fma_exact(a, b, c)


@settings(max_examples=500)
@given(binade_double, binade_double, st.one_of(binade_double, st.sampled_from((0.0, -0.0, math.inf, math.nan))))
def test_fma_matches_exact_over_every_binade(a, b, c):
    assert_fma_exact(a, b, c)


@given(binade_double, binade_double, st.integers(min_value=-4, max_value=4))
def test_fma_matches_exact_cancelling_over_every_binade(a, b, k):
    c = -(a * b)
    for _ in range(abs(k)):
        c = math.nextafter(c, math.copysign(math.inf, k))
    assert_fma_exact(a, b, c)


NAN_TRIPLES = [
    (float_of_bits(0x7FF8000000000123), 1.0, 1.0),  # a payload, which a libm fma keeps
    (1.0, float_of_bits(0xFFF8000000000001), 1.0),
    (0.0, 1.0, float_of_bits(0x7FF8000000000123)),
    (float_of_bits(0xFFF800000000ABCD), 0.0, 0.0),
    (math.inf, 0.0, 1.0),  # invalid operations
    (0.0, -math.inf, 1.0),
    (math.inf, 1.0, -math.inf),
    (-math.inf, -1.0, -math.inf),
]


@pytest.mark.parametrize("a, b, c", NAN_TRIPLES)
def test_fma_nan_is_canonical(a, b, c):
    assert hex_of(b64_fma(a, b, c)) == hex_of(_fma_exact(a, b, c)) == "0x7FF8000000000000"


# signed zeros, both subnormal and normal edges, overflow-prone magnitudes,
# infinities, a signaling NaN and a negative quiet NaN with a payload
SPECIAL_OPERANDS = [
    s * x for x in (0.0, MIN_SUBNORMAL, MIN_NORMAL, 1.0, 1e308, MAX_FINITE, math.inf) for s in (1.0, -1.0)
] + [float_of_bits(0x7FF0000000000001), float_of_bits(0xFFF8000000000123)]


def test_fma_special_operand_cube_matches_oracle():
    # e.g. (1e308, 1e308, -inf) is -inf, where a*b + c overflows to inf - inf
    for a, b, c in itertools.product(SPECIAL_OPERANDS, repeat=3):
        want = bits_of(oracle_fma(a, b, c))
        assert bits_of(_fma_exact(a, b, c)) == want and bits_of(b64_fma(a, b, c)) == want, (a, b, c)


# ---------------------------------------------------------------------------
# value domain


def test_double_bit_equality():
    assert Double(1.0) == Double(1.0)
    assert Double(0.0) != Double(-0.0)
    assert Double(math.nan) == Double(math.nan)
    assert Double(1.0) != Double(2.0)
    assert hash(Double(1.0)) == hash(Double(1.0))
    assert Double(1.0) != Poison()


def test_poison_renders_as_double():
    assert Poison() == Poison()
    assert value_to_str(Poison()) == "poison(double)"
