"""IEEE-754 binary64 arithmetic with an exact-rational reference.

Every operation here rounds to nearest, ties to even.  `b64_add`, `b64_sub`
and `b64_mul` are the host's native double operations, which CPython
guarantees to be IEEE binary64.  `b64_fma` is a single-rounding fused
multiply-add: it calls libm's `fma` when available and falls back to an
exact-rational computation otherwise; at import time the two are compared on
a fixed set of witness triples and the fallback wins any disagreement.

`round_rational` is the independent reference point of the whole package:
it rounds an arbitrary rational to binary64 using integer arithmetic only
(no host floating point), with gradual underflow and IEEE overflow
semantics.  `round_rational_up` is its directed (toward +infinity) variant,
used when a computed value must never under-approximate a real one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._bits import bits_of, float_of_bits, hex_of
from .ir_core import DType

Binary64 = float
ExactRational = Fraction

_SIG_BITS = 53
_EMIN = -1074          # value = m * 2**e; least subnormal has m == 1, e == _EMIN
_EMAX = 971            # top binade: m in [2**52, 2**53), e == _EMAX

MIN_SUBNORMAL = float_of_bits(0x0000000000000001)
MAX_SUBNORMAL = float_of_bits(0x000FFFFFFFFFFFFF)
MIN_NORMAL = float_of_bits(0x0010000000000000)
MAX_FINITE = float_of_bits(0x7FEFFFFFFFFFFFFF)
POS_INF = math.inf
NEG_INF = -math.inf


def is_finite(x: Binary64) -> bool:
    """True unless `x` is an infinity or a NaN."""
    return math.isfinite(x)


def to_rational(x: Binary64) -> ExactRational:
    """Exact rational value of a finite binary64; raises on inf/NaN."""
    if not math.isfinite(x):
        raise ValueError(f"no rational value for {x!r}")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Reference rounding


def _round_ints(n: int, d: int, to_nearest: bool) -> Binary64:
    """Round n/d (d > 0) to binary64.

    `to_nearest` selects round-to-nearest-even; otherwise rounds toward
    +infinity.  Pure integer arithmetic throughout; a power-of-two `d` (every
    dyadic rational) is split by shift and mask instead of division.
    """
    if n == 0:
        return 0.0
    sign = n < 0
    a = -n if sign else n

    # Exponent estimate: a/d lies in (2**(k-1), 2**(k+1)) for
    # k = a.bit_length() - d.bit_length(), so m starts in [2**52, 2**54).  A
    # power of two d pins a/d to [2**k, 2**(k+1)) and m to [2**52, 2**53).
    pow2 = d & (d - 1) == 0
    e = a.bit_length() - d.bit_length() - _SIG_BITS + pow2
    if e < _EMIN:
        e = _EMIN

    if pow2:
        s = e + d.bit_length() - 1
        if s > 0:
            den = 1 << s
            m, rem = a >> s, a & (den - 1)
        else:
            m, rem, den = a << -s, 0, 1
    else:

        def split(exp: int) -> tuple[int, int, int]:
            num, den = (a, d << exp) if exp >= 0 else (a << -exp, d)
            m, rem = divmod(num, den)
            return m, rem, den

        m, rem, den = split(e)
        while m >= 1 << _SIG_BITS:
            e += 1
            m, rem, den = split(e)

    if to_nearest:
        twice = 2 * rem
        if twice > den or (twice == den and m & 1):
            m += 1
    elif rem and not sign:
        m += 1

    if m == 1 << _SIG_BITS:
        m >>= 1
        e += 1

    # m < 2**53 and e >= _EMIN, so m * 2**e is a binary64 unless e > _EMAX
    # (a subnormal m < 2**52 has e == _EMIN); zero keeps the sign
    if e > _EMAX:
        if to_nearest:
            return NEG_INF if sign else POS_INF
        return -MAX_FINITE if sign else POS_INF
    x = math.ldexp(m, e)
    return -x if sign else x


def round_rational(q: ExactRational | int) -> Binary64:
    """Nearest binary64 to the rational `q`, ties to even."""
    q = Fraction(q)
    return _round_ints(q.numerator, q.denominator, to_nearest=True)


def round_rational_up(q: ExactRational | int) -> Binary64:
    """Least binary64 that is >= the rational `q`."""
    q = Fraction(q)
    return _round_ints(q.numerator, q.denominator, to_nearest=False)


# ---------------------------------------------------------------------------
# Binary64 operations


def b64_add(x: Binary64, y: Binary64) -> Binary64:
    return x + y


def b64_sub(x: Binary64, y: Binary64) -> Binary64:
    return x - y


def b64_mul(x: Binary64, y: Binary64) -> Binary64:
    return x * y


def _signbit(x: Binary64) -> bool:
    return math.copysign(1.0, x) < 0


def _fma_exact(a: Binary64, b: Binary64, c: Binary64) -> Binary64:
    """Fused multiply-add by exact rational arithmetic, one final rounding."""
    if math.isnan(a) or math.isnan(b) or math.isnan(c):
        return math.nan
    if math.isinf(a) or math.isinf(b):
        p = a * b  # +-inf, or nan for 0 * inf
        if math.isnan(p):
            return math.nan
        if math.isinf(c) and _signbit(c) != _signbit(p):
            return math.nan
        return c if math.isinf(c) else p
    if math.isinf(c):
        return c
    q = Fraction(a) * Fraction(b) + Fraction(c)
    if q == 0:
        # IEEE zero-sign rules: an exact cancellation of nonzero terms gives
        # +0; a zero product keeps -0 only if both addends are -0.
        if a == 0.0 or b == 0.0:
            psign = _signbit(a) != _signbit(b)
            return -0.0 if psign and _signbit(c) else 0.0
        return 0.0
    return _round_ints(q.numerator, q.denominator, to_nearest=True)


def _load_libm_fma():
    try:
        import ctypes
        import ctypes.util

        name = ctypes.util.find_library("m") or "libm.so.6"
        fn = ctypes.CDLL(name).fma
        fn.restype = ctypes.c_double
        fn.argtypes = [ctypes.c_double, ctypes.c_double, ctypes.c_double]
        return fn
    except Exception:
        return None


_ULP27 = 1.0 + 2.0**-27

# Triples where a correct fma is observably different from mul-then-add,
# plus zero-sign and wide-exponent cases; any libm mismatch with the exact
# fallback disqualifies libm.
_FMA_CANARY = (
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
)


def _libm_agrees(fn) -> bool:
    return all(
        bits_of(fn(a, b, c)) == bits_of(_fma_exact(a, b, c)) for a, b, c in _FMA_CANARY
    )


_LIBM_FMA = _load_libm_fma()
_FMA_IMPL = _LIBM_FMA if (_LIBM_FMA is not None and _libm_agrees(_LIBM_FMA)) else _fma_exact


def b64_fma(a: Binary64, b: Binary64, c: Binary64) -> Binary64:
    """Fused multiply-add: round(a*b + c) with a single rounding."""
    return _FMA_IMPL(a, b, c)


# ---------------------------------------------------------------------------
# Value domain


@dataclass(frozen=True, slots=True, eq=False)
class Double:
    """A defined double value; equality is by bit pattern."""

    v: Binary64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Double):
            return NotImplemented
        return bits_of(self.v) == bits_of(other.v)

    def __hash__(self) -> int:
        return hash(bits_of(self.v))

    def __repr__(self) -> str:
        return f"Double({self.v!r})"


@dataclass(frozen=True, slots=True)
class Poison:
    """The poison value of the given type."""

    ty: DType = DType.DOUBLE


Value = Double | Poison


def value_to_str(v: Value) -> str:
    """Render a value for traces and reports: hex bits plus decimal."""
    if isinstance(v, Poison):
        return f"poison({v.ty})"
    return f"{hex_of(v.v)} ({v.v!r})"
