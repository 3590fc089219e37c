"""Round-off error bounds for straight-line double expressions.

The model charges every floating-point operation a relative error `delta`
and an absolute underflow term `eta`: computing `x op y` yields
`(x op y)(1 + d) + e` with `|d| <= delta`, `|e| <= eta`.  `derive_bound`
propagates interval-style error estimates through an original and an
optimized expression over shared inputs to a sound upper bound on how far
apart the two computed results can be, given only input magnitudes; it and
`compile_derived_bound` build from one `_propagate`, as both forms of the
published bound for the canonical pair, `epsilon_fma_paper` (kept verbatim
for auditing), come from `_paper_formula`.  An expression's leaves are
variables and `Double` constants, the very literals the IR parser builds.

All internal arithmetic is exact: values are dyadic rationals, as every
binary64 and every parameter is (`Fraction`s, or integers times powers of
two in the compiled exact fallback), so no rounding happens until the final
bound is converted to a binary64, rounding upward.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Union

from .fp_semantics import MAX_FINITE, MIN_NORMAL, Binary64, _round_dyadic, compile_function, is_finite, round_rational_up
from ._bits import Double

DEFAULT_DELTA = Fraction(1, 2**53)
DEFAULT_ETA = Fraction(1, 2**1075)


class MismatchedExpressionsError(ValueError):
    """Original and optimized expressions read different variable sets."""


class UnknownVariableError(ValueError):
    """A magnitude is missing for a variable the expressions read."""


# ---------------------------------------------------------------------------
# Parameters and expressions


def _nonneg_dyadic(what: str, q: Fraction) -> Fraction:
    if q < 0:
        raise ValueError(f"{what} must be non-negative, got {q}")
    if q.denominator & (q.denominator - 1):
        raise ValueError(f"{what} must be a dyadic rational, got {q}")
    return q


@dataclass(frozen=True)
class ErrorModelParams:
    """Per-operation error constants.

    `delta` is the relative rounding bound (unit roundoff for binary64),
    `eta` the absolute underflow addend.  Both must be non-negative dyadic
    rationals; note the default eta, 2**-1075, is itself below the least
    subnormal, which is why bounds are kept exact rather than in binary64.
    """

    delta: Fraction = DEFAULT_DELTA
    eta: Fraction = DEFAULT_ETA

    def __post_init__(self):
        for name in ("delta", "eta"):
            object.__setattr__(self, name, _nonneg_dyadic(name, Fraction(getattr(self, name))))
        if self.delta >= 1:
            raise ValueError(f"delta must be below 1, got {self.delta}")


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Add:
    lhs: FpExpr
    rhs: FpExpr


@dataclass(frozen=True, slots=True)
class Mul:
    lhs: FpExpr
    rhs: FpExpr


@dataclass(frozen=True, slots=True)
class Fma:
    a: FpExpr
    b: FpExpr
    c: FpExpr


FpExpr = Union[Var, Double, Add, Mul, Fma]


def expr_variables(e: FpExpr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Double):
        return frozenset()
    if isinstance(e, Fma):
        return expr_variables(e.a) | expr_variables(e.b) | expr_variables(e.c)
    return expr_variables(e.lhs) | expr_variables(e.rhs)


def _shared_variables(original: FpExpr, optimized: FpExpr) -> frozenset[str]:
    """The variables both expressions read; a pair reading different sets has no bound."""
    vs, vs_opt = expr_variables(original), expr_variables(optimized)
    if vs != vs_opt:
        raise MismatchedExpressionsError(f"variable sets differ: {sorted(vs)} vs {sorted(vs_opt)}")
    return vs


# ---------------------------------------------------------------------------
# Bounds


@dataclass(frozen=True)
class BoundResult:
    """A sound upper bound plus its per-operation breakdown.

    `magnitude_bound` is exact; `terms` pairs a per-operation label with the
    error that operation added on top of its operands' errors (the final
    entry is the comparison rounding term).  Terms sum to the bound.
    """

    magnitude_bound: Fraction
    terms: tuple[tuple[str, Fraction], ...]


def eval_bound(b: BoundResult) -> Binary64:
    """The bound as a binary64, rounded upward so it never under-approximates."""
    return round_rational_up(b.magnitude_bound)


def _coerce_mag(name: str, value) -> Fraction:
    if isinstance(value, Fraction):
        q = value
    elif isinstance(value, (int, float)):
        if isinstance(value, float) and not is_finite(value):
            raise ValueError(f"magnitude for {name!r} must be finite, got {value!r}")
        q = Fraction(value)
    else:
        raise TypeError(f"magnitude for {name!r} must be a number, got {type(value).__name__}")
    return _nonneg_dyadic(f"magnitude for {name!r}", q)


class _Propagation:
    """Walks an expression accumulating (magnitude, error) pairs.

    Generic over the coefficient arithmetic: `lift` maps an exact rational
    into any type with + and *, so the same walk yields exact bounds
    (`Fraction` itself) and the compiled polynomial form.
    """

    def __init__(self, mags, params: ErrorModelParams, prefix: str, lift: Callable):
        self.mags = mags
        self.delta = lift(params.delta)
        self.eta = lift(params.eta)
        self.prefix = prefix
        self.zero = lift(Fraction(0))
        self.lift = lift
        # (label, error after the operation, error of its operands)
        self.terms: list[tuple[str, object, object]] = []

    def _rounded(self, opname: str, mag, pre, child_err):
        # One rounding on a value of magnitude <= mag + pre, where pre bounds
        # the accumulated distance from the exact result.
        err = pre + self.delta * (mag + pre) + self.eta
        self.terms.append((f"{self.prefix}:{opname}[{len(self.terms)}]", err, child_err))
        return err

    def walk(self, e: FpExpr):
        if isinstance(e, Var):
            return self.mags[e.name], self.zero
        if isinstance(e, Double):
            return self.lift(Fraction(abs(e.v))), self.zero
        if isinstance(e, Add):
            ml, el = self.walk(e.lhs)
            mr, er = self.walk(e.rhs)
            mag = ml + mr
            pre = el + er
            return mag, self._rounded("add", mag, pre, pre)
        if isinstance(e, Mul):
            ml, el = self.walk(e.lhs)
            mr, er = self.walk(e.rhs)
            mag = ml * mr
            pre = el * mr + ml * er + el * er
            return mag, self._rounded("mul", mag, pre, el + er)
        ma, ea = self.walk(e.a)
        mb, eb = self.walk(e.b)
        mc, ec = self.walk(e.c)
        mag = ma * mb + mc
        pre = ea * mb + ma * eb + ea * eb + ec
        return mag, self._rounded("fma", mag, pre, ea + eb + ec)


def _propagate(original: FpExpr, optimized: FpExpr, mags, params: ErrorModelParams, lift: Callable):
    """Both sides' exact magnitude bounds, their summed error and their per-site terms.

    Over `lift`'s coefficient type, as `_Propagation` is: one magnitude
    bound when both sides' agree and two otherwise, and each term as (label,
    error after the operation, error of its operands).
    """
    p_orig = _Propagation(mags, params, "original", lift)
    m1, e1 = p_orig.walk(original)
    if original == optimized:
        # Structurally identical computations round identically, so only the
        # comparison subtraction can contribute.
        return (m1,), p_orig.zero, []
    p_opt = _Propagation(mags, params, "optimized", lift)
    m2, e2 = p_opt.walk(optimized)
    return ((m1,) if m1 == m2 else (m1, m2)), e1 + e2, p_orig.terms + p_opt.terms


def derive_bound(
    original: FpExpr,
    optimized: FpExpr,
    mags: Mapping[str, Union[Binary64, int, Fraction]],
    params: ErrorModelParams = ErrorModelParams(),
) -> BoundResult:
    """Bound |original - optimized| as computed in binary64.

    Both expressions are evaluated over the same inputs, of which only
    magnitude bounds are known: `mags[v] >= |value of v|`.  The result
    over-approximates the worst-case distance between the two computed
    values, including the final rounding incurred when the comparison itself
    subtracts them.
    """
    vs = _shared_variables(original, optimized)
    missing = sorted(v for v in vs if v not in mags)
    if missing:
        raise UnknownVariableError(f"no magnitude for {', '.join(missing)}")
    qmags = {v: _coerce_mag(v, mags[v]) for v in vs}
    ms, err, terms = _propagate(original, optimized, qmags, params, Fraction)
    # The verdict compares the two computed doubles with one more binary64
    # subtraction; both share the exact magnitude bound max(m1, m2).
    cmp_term = params.delta * max(ms) + params.eta
    return BoundResult(
        magnitude_bound=err + cmp_term,
        terms=(*((label, after - before) for label, after, before in terms), ("comparison", cmp_term)),
    )


def _paper_formula(A, B, C, d, h, one, two):
    """The published formula over any coefficient type with + and *.

    Serves both the exact `epsilon_fma_paper` and the polynomial that
    `compile_paper_bound` compiles.
    """
    inner = A * B * C * d + h + A * B * (two * d + d * d) + h * (one + d) + C * d + h
    return inner * (one + d) + h


def fma_roles(original: FpExpr, optimized: FpExpr) -> tuple[str, str, str] | None:
    """The variables in the roles (a, b, c) when the pair is a*b+c against fma(a, b, c).

    Matches modulo commutativity of * and +; None for any other shape.
    """
    if not isinstance(optimized, Fma):
        return None
    a, b, c = optimized.a, optimized.b, optimized.c
    if not all(isinstance(x, Var) for x in (a, b, c)):
        return None
    sums = [s for p in (Mul(a, b), Mul(b, a)) for s in (Add(p, c), Add(c, p))]
    return (a.name, b.name, c.name) if original in sums else None


def epsilon_fma_paper(
    abs_a: Union[Binary64, Fraction],
    abs_b: Union[Binary64, Fraction],
    abs_c: Union[Binary64, Fraction],
    params: ErrorModelParams = ErrorModelParams(),
) -> Fraction:
    """Closed-form published bound for a*b+c versus fma(a, b, c), verbatim.

    Transcribed exactly as published, including the first |a*b*c| factor
    (see the audit mode of the validator, which flags inputs where this
    formula and `derive_bound` disagree on the verdict).
    """
    return _paper_formula(
        _coerce_mag("abs_a", abs_a),
        _coerce_mag("abs_b", abs_b),
        _coerce_mag("abs_c", abs_c),
        params.delta,
        params.eta,
        Fraction(1),
        Fraction(2),
    )


# ---------------------------------------------------------------------------
# Compiled per-sample evaluation
#
# For a fixed expression pair the derived bound is a polynomial in the input
# magnitudes with non-negative coefficients (two polynomials when the exact
# magnitudes of the sides differ, joined by a pointwise max).  Sampling
# validators evaluate that polynomial millions of times, so it is compiled
# once: exact coefficients, rounded upward into floats, then a per-sample
# float evaluation inflated by a slack that dominates every rounding the
# evaluation itself can commit (at least 1 + 2**-40 relative plus 2**-1050
# absolute, widened for very large polynomials).  Magnitudes too large for
# the float path fall back to exact evaluation (dyadic values as shifted
# integers, one upward rounding), so the result always lies between the
# exact bound and slack times it; `derive_bound` remains the exact reference.


class _Poly:
    """Polynomial over named variables with exact Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, ...], Fraction]):
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    @classmethod
    def const(cls, q: Fraction, nvars: int) -> _Poly:
        return cls({(0,) * nvars: q})

    @classmethod
    def variable(cls, index: int, nvars: int) -> _Poly:
        key = tuple(1 if i == index else 0 for i in range(nvars))
        return cls({key: Fraction(1)})

    def __add__(self, other: _Poly) -> _Poly:
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return _Poly(out)

    def __mul__(self, other: _Poly) -> _Poly:
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return _Poly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Poly) and self.coeffs == other.coeffs


_EVAL_REL_SLACK = 1.0 + 2.0**-40
_EVAL_ABS_SLACK = 2.0**-1050
# operands per generated statement, which keeps the compiler's recursion shallow
_CHUNK = 32
# exact-path results kept per compiled bound, keyed by the magnitude tuple.
# A bound reads magnitudes only, and the special corpus's 16 values are 8
# magnitudes of both signs: while only MAX_FINITE is over the limit, the
# capped corpus reaches at most 229 distinct exact-path tuples per bound
# through `check_reference` (169 at three parameters); `validate` skips the
# bounds of a sample whose differences are all 0.0 and reaches 32 on the
# canonical pair, 36 on the 8-term dot product.  512 keeps them all with
# room to spare, while capping what random traffic that never repeats can
# fill (a 3-tuple entry is about 250 bytes)
_EXACT_MEMO = 512


def _fold(target: str, op: str, items: list[str]) -> list[str]:
    """Statements setting `target` to `items` joined by `op`, left to right."""
    lines, first = [], items[0]
    for k in range(1, len(items), _CHUNK):
        lines.append(f"{target} = {f' {op} '.join([first, *items[k:k + _CHUNK]])}")
        first = target
    return lines or [f"{target} = {first}"]


class CompiledBound:
    """Per-sample upward evaluation of a precompiled bound polynomial.

    Call with the `nvars` non-negative input magnitudes in the variable
    order the compiler was given; returns a binary64 that over-approximates
    the exact bound, or inf if any magnitude is inf or nan.  Per monomial
    the factors at least 1 are multiplied first, then the coefficient, then
    the rest, so a subnormal intermediate is never amplified back up;
    magnitudes large enough that the leading factors alone could overflow,
    or could amplify the rounding of a subnormal coefficient past the
    absolute slack, are routed to an exact rational evaluation instead, as
    are inf and nan.
    The routing and the float path are defined and compiled once, in
    `__init__`, and the exact path by `_compile_exact`, behind a memo of the
    last `_EXACT_MEMO` magnitude tuples; every caller, the refinement
    checker's generated check included, evaluates the bound by calling it.
    """

    __slots__ = ("_nvars", "_parts", "_rel_slack", "_mag_limit", "_eval", "_exact")

    def __init__(self, polys: tuple[_Poly, ...], nvars: int):
        self._nvars = nvars
        parts = []
        exact_parts = []
        n_ops = 0
        max_degree = 0
        max_coeff = Fraction(0)
        # highest degree of a monomial whose coefficient is subnormal
        tiny_degree = 0
        for poly in polys:
            mons = []
            exact = []
            for key in sorted(poly.coeffs):
                coeff = _nonneg_dyadic("bound polynomial coefficient", poly.coeffs[key])
                idxs = tuple(i for i, p in enumerate(key) for _ in range(p))
                coeff_f = round_rational_up(coeff)
                mons.append((coeff_f, idxs))
                # coeff == numerator * 2**exponent
                exact.append((coeff.numerator, 1 - coeff.denominator.bit_length(), idxs))
                n_ops += 2 * len(idxs) + 2
                max_degree = max(max_degree, len(idxs))
                if coeff_f < MIN_NORMAL:
                    tiny_degree = max(tiny_degree, len(idxs))
                max_coeff = max(max_coeff, coeff)
            parts.append(tuple(mons))
            exact_parts.append(tuple(exact))
        self._parts = tuple(parts)
        # one rounding per multiply or add, relative in the normal range
        self._rel_slack = max(_EVAL_REL_SLACK, 1.0 + n_ops * 2.0**-50)
        # keep every prefix product of large factors, times the coefficient,
        # summed over a part's monomials, clear of overflow: above this
        # input magnitude go exact instead (inf and nan always do)
        coeff_exp = max_coeff.numerator.bit_length() + 1 if max_coeff > 1 else 1
        count_exp = max(len(p) for p in parts).bit_length() if parts else 1
        self._mag_limit = (
            2.0 ** ((1020 - coeff_exp - count_exp) // max_degree)
            if max_degree
            else MAX_FINITE
        )
        if tiny_degree:
            # a subnormal coefficient rounds up by less than 2**-1074, and
            # the large factors multiply that: keep their product under
            # 2**20 over the monomial count, so the sum stays below the
            # absolute slack
            self._mag_limit = min(self._mag_limit, 2.0 ** ((20 - count_exp) // tiny_degree))
        # variable i splits into `g{i}`, its magnitude if at least 1 and else
        # 1.0, and `s{i}`, the converse: a monomial g...*coeff*s... keeps the
        # order above, as a factor of 1.0 is exact.  Each part sums from 0.0
        # left to right, the largest wins (by `>`), then the slack applies
        ns: dict = {"owner": self, "lim": self._mag_limit, "rel": self._rel_slack, "slack": _EVAL_ABS_SLACK}
        used = sorted({i for mons in parts for _, idxs in mons for i in idxs})
        lines = [line for i in used for line in (
            f"g{i} = m{i} if m{i} >= 1.0 else 1.0", f"s{i} = 1.0 if m{i} >= 1.0 else m{i}")]
        lines.append("b = 0.0")
        for k, mons in enumerate(parts):
            for j, (coeff, idxs) in enumerate(mons):
                ns[f"c{k}_{j}"] = coeff
                lines += _fold(f"u{j}", "*", [*(f"g{i}" for i in idxs), f"c{k}_{j}", *(f"s{i}" for i in idxs)])
            lines += [*_fold("t", "+", ["0.0", *(f"u{j}" for j in range(len(mons)))]), "if t > b: b = t"]
        lines.append("return b * rel + slack")
        # any magnitude not at most the limit, read or not (an unread inf or nan gives inf too), goes exact
        within = " and ".join(f"m{i} <= lim" for i in range(nvars)) or "True"
        body = [*(f"m{i} = mags[{i}]" for i in range(nvars)), f"if {within}:", *(f"    {line}" for line in lines),
                "return owner._eval_exact(mags)"]
        self._eval = compile_function("bound", "mags", body, ns)
        self._exact = functools.lru_cache(maxsize=_EXACT_MEMO)(_compile_exact(exact_parts, nvars))

    def _eval_exact(self, mags: tuple[float, ...]) -> float:
        """The bound at these magnitudes in exact arithmetic, rounded up once (see `_compile_exact`), memoised.

        Past the limit the float path looks it up on the instance at each call, since the published
        bound is compiled once per process, maybe before `bench/tracing.py` wraps this method.
        """
        return self._exact(*mags)

    def __call__(self, mags: tuple[float, ...]) -> float:
        return self._eval(mags)


def _compile_exact(parts, nvars: int) -> Callable:
    """The bound at magnitudes `m0` ... `m{nvars-1}` exactly, rounded up, as generated code.

    Any magnitude that is inf or nan, read or not, gives inf.  `parts`
    holds, per part, each monomial as (coefficient numerator, its
    power-of-two exponent, variable indices).  Every value is an integer
    times a power of two: magnitude i is `n{i} * 2**(e{i} - 53)`, monomial j
    of part k is `N{k}_{j} * 2**E{k}_{j}` (the integers multiplied, the
    exponents added; coefficients are hex literals, free of the decimal
    digit limit), each part sums its monomials as integers shifted to the
    least exponent `low`, and the largest is rounded up once (`_round_dyadic`).
    """
    ns = {"INF": math.inf, "frexp": math.frexp, "round_dyadic": _round_dyadic}
    # nan < INF is false, so nan gives inf too
    lines = [f"if not ({' and '.join(f'm{i} < INF' for i in range(nvars))}):", "    return INF"] if nvars else []
    # m * 2**53 is an integer for the frexp significand m of a double, as in `_fma_exact`
    read = sorted({i for mons in parts for _, _, idxs in mons for i in idxs})
    lines += [f"n{i}, e{i} = frexp(m{i})" for i in read]
    lines += [f"n{i} = int(n{i} * {2.0**53!r})" for i in read]
    # `low` need only be at most every exponent, so 0 and the constant
    # monomials' exponents start the minimum (and the bound of no monomials is 0)
    lines.append(f"low = {min([0, *(exp for mons in parts for _, exp, idxs in mons if not idxs)])}")
    sums = []
    for k, mons in enumerate(parts):
        terms = []
        for j, (num, exp, idxs) in enumerate(mons):
            if not idxs:
                terms.append(f"({num:#x} << {exp} - low)")
                continue
            lines += _fold(f"N{k}_{j}", "*", [f"{num:#x}", *(f"n{i}" for i in idxs)])
            lines += _fold(f"E{k}_{j}", "+", [str(exp - 53 * len(idxs)), *(f"e{i}" for i in idxs)])
            lines.append(f"if E{k}_{j} < low: low = E{k}_{j}")
            terms.append(f"(N{k}_{j} << E{k}_{j} - low)")
        sums.append(terms or ["0"])
    lines += _fold("best", "+", sums[0])
    for terms in sums[1:]:
        lines += [*_fold("t", "+", terms), "if t > best: best = t"]
    lines.append("return round_dyadic(best, low, False)")
    return compile_function("exact", "".join(f"m{i}, " for i in range(nvars)), lines, ns)


def compile_derived_bound(original: FpExpr, optimized: FpExpr, var_order: tuple[str, ...]) -> CompiledBound:
    """Compile derive_bound for this pair, under the default model, into a fast per-sample evaluator.

    `var_order` fixes the positional meaning of the magnitude tuple the
    evaluator takes; it must cover every variable the expressions read.
    """
    return CompiledBound(_derived_polys(original, optimized, var_order, ErrorModelParams()), len(var_order))


def _derived_polys(
    original: FpExpr, optimized: FpExpr, var_order: tuple[str, ...], params: ErrorModelParams
) -> tuple[_Poly, ...]:
    """derive_bound for this pair as polynomials in the magnitudes; the bound is their maximum."""
    vs = _shared_variables(original, optimized)
    missing = sorted(v for v in vs if v not in var_order)
    if missing:
        raise UnknownVariableError(f"no position for {', '.join(missing)}")
    n = len(var_order)
    mags = {v: _Poly.variable(i, n) for i, v in enumerate(var_order)}
    ms, err, _ = _propagate(original, optimized, mags, params, lambda q: _Poly.const(q, n))
    delta, eta = _Poly.const(params.delta, n), _Poly.const(params.eta, n)
    return tuple(err + delta * m + eta for m in ms)


@functools.cache
def compile_paper_bound() -> CompiledBound:
    """Compile epsilon_fma_paper into a fast evaluator over (|a|, |b|, |c|), once per process."""
    A, B, C = (_Poly.variable(i, 3) for i in range(3))
    d, h, one, two = (_Poly.const(q, 3) for q in (DEFAULT_DELTA, DEFAULT_ETA, Fraction(1), Fraction(2)))
    return CompiledBound((_paper_formula(A, B, C, d, h, one, two),), 3)
