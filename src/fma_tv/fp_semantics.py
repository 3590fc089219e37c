"""IEEE-754 binary64 arithmetic with an exact-rational reference.

Every operation here rounds to nearest, ties to even.  `b64_add`, `b64_sub`
and `b64_mul` are the host's native double operations, which CPython
guarantees to be IEEE binary64.  `b64_fma` is a single-rounding fused
multiply-add that needs no libm.  It is generated from `fma_source`, the
source the refinement checker also inlines, and takes one of four routes:
`a*b + c` for a zero factor, `a*b` for a zero `c`, an error-free transform
(Dekker's product, then `math.fsum`) where its guards hold, and otherwise
`_fma_exact`, exact shifted-integer arithmetic.  `_fma_exact` hands a
non-finite operand, and an exact zero result, to float arithmetic, whose
IEEE rules for infinities, NaN and signed zeros then decide it.  Every NaN
it returns is the canonical quiet NaN 0x7FF8000000000000, whatever the
operands' payloads.

`_round_dyadic` is the one rounding routine: it rounds an integer times a
power of two to binary64 by shift and mask, to nearest or toward +infinity,
with gradual underflow and IEEE overflow semantics.  `_fma_exact` and the
exact path of a compiled error bound call it.  `round_rational_up` serves
it a dyadic rational, for a computed value that must never under-approximate
a real one.  The independent reference for both roundings is the oracle in
`tests/oracles.py`, which imports nothing from here.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ._bits import Double, Record, float_of_bits, hex_of

Binary64 = float

_SIG_BITS = 53
_EMIN = -1074          # value = m * 2**e; least subnormal has m == 1, e == _EMIN
_EMAX = 971            # top binade: m in [2**52, 2**53), e == _EMAX

MIN_SUBNORMAL = float_of_bits(0x0000000000000001)
MAX_SUBNORMAL = float_of_bits(0x000FFFFFFFFFFFFF)
MIN_NORMAL = float_of_bits(0x0010000000000000)
MAX_FINITE = float_of_bits(0x7FEFFFFFFFFFFFFF)


def is_finite(x: Binary64) -> bool:
    """True unless `x` is an infinity or a NaN."""
    return math.isfinite(x)


def compile_function(name: str, params: str, body: list[str], ns: dict) -> Callable:
    """`def name(params):` over the statements `body`, with every value it reads bound in `ns`."""
    src = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(src, f"<fma_tv {name}>", "exec"), ns)
    return ns[name]


# ---------------------------------------------------------------------------
# Rounding


def _round_dyadic(n: int, e: int, to_nearest: bool) -> Binary64:
    """Round n * 2**e to binary64, to nearest, ties to even, if `to_nearest`, else toward +infinity.

    The one definition of the rounding.  Shift and mask only: the
    significand keeps 53 bits, or fewer where that would take its last bit
    below the least subnormal.
    """
    if n == 0:
        return 0.0
    m = -n if n < 0 else n
    s = m.bit_length() - _SIG_BITS
    if s < _EMIN - e:
        s = _EMIN - e
    if s > 0:
        q = m >> s
        if to_nearest:
            half = 1 << (s - 1)
            if m & half and (q & 1 or m & (half - 1)):
                q += 1
        elif n > 0 and q << s != m:
            q += 1
        m, e = q, e + s
    # m <= 2**53 and e >= _EMIN, so m * 2**e is a binary64 unless it reaches
    # 2**1024; zero keeps the sign
    if m.bit_length() + e > _EMAX + _SIG_BITS:
        if to_nearest or n > 0:
            return math.inf if n > 0 else -math.inf
        return -MAX_FINITE
    x = math.ldexp(m, e)
    return x if n > 0 else -x


def round_rational_up(q: Fraction | int) -> Binary64:
    """Least binary64 that is >= the dyadic rational `q`; any other `q` raises ValueError."""
    from fractions import Fraction

    q = Fraction(q)
    d = q.denominator
    if d & (d - 1):
        raise ValueError(f"not a dyadic rational: {q}")
    return _round_dyadic(q.numerator, 1 - d.bit_length(), False)


# ---------------------------------------------------------------------------
# Binary64 operations


def b64_add(x: Binary64, y: Binary64) -> Binary64:
    return x + y


def b64_sub(x: Binary64, y: Binary64) -> Binary64:
    return x - y


def b64_mul(x: Binary64, y: Binary64) -> Binary64:
    return x * y


def _fma_exact(a: Binary64, b: Binary64, c: Binary64) -> Binary64:
    """Fused multiply-add in exact shifted-integer arithmetic, one final rounding."""
    finite_ab = math.isfinite(a) and math.isfinite(b)
    if not (finite_ab and math.isfinite(c)):
        # nothing rounds, so float arithmetic gives IEEE's result; a*b is left
        # out when only c is non-finite, as it could overflow to the other infinity
        r = c if finite_ab else a * b + c
        return r if r == r else math.nan
    # a product under a quarter ulp of a normal c cannot move it (an
    # underflowed one is under 2**-1074 off)
    if abs(a * b) * 2.0**56 <= abs(c) and abs(c) >= 2.0**-1019:
        return c
    # x == mx * 2**ex, and mx * 2**53 is an integer: sum the integers at the lesser exponent
    (ma, ea), (mb, eb), (mc, ec) = math.frexp(a), math.frexp(b), math.frexp(c)
    if ea + eb >= 1027:
        return a * b  # |a*b| >= 2**1025 and |c| < 2**1024: the sum rounds to the product's infinity
    ep, ec = ea + eb - 106, ec - 53
    low = min(ep, ec)
    n = (int(ma * 2.0**53) * int(mb * 2.0**53) << ep - low) + (int(mc * 2.0**53) << ec - low)
    if n == 0:
        # a zero factor makes a*b an exact signed zero, whose float sum with the
        # zero c has IEEE's sign; cancelling nonzero terms give +0
        return a * b + c if a == 0.0 or b == 0.0 else 0.0
    return _round_dyadic(n, low, True)


# Guards of the error-free transform: Veltkamp's split of a factor under
# 2**995 cannot overflow; the factors of a product of at least 2**-968 have
# last bits whose product is at least 2**-1074, so every step of Dekker's
# product is exact; a product and an addend under 2**1021 keep every sum, and
# every partial of `fsum`, finite.
_FMA_CONSTS = {"SPLIT": 2.0**27 + 1.0, "FMA_AB": 2.0**995, "FMA_LO": 2.0**-968, "FMA_HI": 2.0**1021,
               "fsum": math.fsum}


def fma_source(out: str, a: str, b: str, c: str, ns: dict) -> list[str]:
    """Statements setting `out` to the fma of the floats named `a`, `b` and `c`.

    The one definition of `b64_fma`, which the refinement checker inlines
    per fmuladd.  Three routes run inline, on finite operands only: a zero
    factor gives `a*b + c`; a zero `c` gives `a*b`; inside the guards,
    Dekker's product with Veltkamp's split writes `a*b` exactly as a double
    and its error term, and `math.fsum` (Shewchuk's exact partials, DCG
    18(3), 1997) rounds their sum with `c` once.  Like the `*` and `+` it
    uses, this assumes IEEE binary64 operations without x87 extended
    precision.  Everything else calls `fma_exact`, which the caller binds
    in `ns` (to `_fma_exact` or a wrapper of it).  Temporaries are named
    `f_*`; the constants are bound in `ns`.
    """
    ns.update(_FMA_CONSTS)
    return [
        f"f_p = {a} * {b}",
        f"if f_p == 0.0 and ({a} == 0.0 or {b} == 0.0) and {c} - {c} == 0.0:",
        f"    {out} = f_p + {c}",
        f"elif {c} == 0.0 and f_p - f_p == 0.0:",
        f"    {out} = f_p",
        f"elif -FMA_HI < {c} < FMA_HI and FMA_LO <= abs(f_p) < FMA_HI and -FMA_AB < {a} < FMA_AB "
        f"and -FMA_AB < {b} < FMA_AB:",
        # f_p plus the error term == a*b exactly
        f"    f_t = {a} * SPLIT",
        f"    f_ah = f_t - (f_t - {a})",
        f"    f_al = {a} - f_ah",
        f"    f_t = {b} * SPLIT",
        f"    f_bh = f_t - (f_t - {b})",
        f"    f_bl = {b} - f_bh",
        f"    {out} = fsum((f_p, ((f_ah * f_bh - f_p) + f_ah * f_bl + f_al * f_bh) + f_al * f_bl, {c}))",
        "else:",
        f"    {out} = fma_exact({a}, {b}, {c})",
    ]


_FMA_NS: dict = {"fma_exact": _fma_exact}
b64_fma = compile_function(
    "b64_fma", "a, b, c", [*fma_source("r", "a", "b", "c", _FMA_NS), "return r"], _FMA_NS
)
b64_fma.__doc__ = "Fused multiply-add: round(a*b + c) with a single rounding (see `fma_source`)."


# ---------------------------------------------------------------------------
# Value domain


class Poison(Record):
    """The poison `double`."""

    __slots__ = ()


Value = Double | Poison


def value_to_str(v: Value) -> str:
    """Render a value for traces and reports: hex bits plus decimal."""
    if isinstance(v, Poison):
        return "poison(double)"
    return f"{hex_of(v.v)} ({v.v!r})"
