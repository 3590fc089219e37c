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

All arithmetic is exact, over dyadic rationals as every binary64 is, until
the bound is rounded up to a binary64: `derive_bound` works in `Fraction`s,
the compiled tier in integers times powers of two (as Flocq represents
binary floats), so only what takes or returns a `Fraction` imports
`fractions`.  Compiling caps the polynomials' coefficient size and product
size (`MAX_COEFF_BITS`, `MAX_MONOMIALS`) before computing a product.
"""

from __future__ import annotations

import functools
import math
from operator import add, or_
from typing import Callable, Mapping, Union

from .fp_semantics import MAX_FINITE, MIN_NORMAL, Binary64, _round_dyadic, compile_function, is_finite, round_rational_up
from ._bits import Double, Record

# the default model: delta = 2**DELTA_EXP, the binary64 unit roundoff, and eta = 2**ETA_EXP
DELTA_EXP, ETA_EXP = -53, -1075


class MismatchedExpressionsError(ValueError):
    """Original and optimized expressions read different variable sets."""


class UnknownVariableError(ValueError):
    """A magnitude is missing for a variable the expressions read."""


class CoefficientLimitError(ValueError):
    """The compiled bound's polynomial needs a product past `MAX_COEFF_BITS` or `MAX_MONOMIALS`."""


# ---------------------------------------------------------------------------
# Parameters and expressions


def _nonneg_dyadic(what: str, q: Fraction) -> Fraction:
    if q < 0:
        raise ValueError(f"{what} must be non-negative, got {q}")
    if q.denominator & (q.denominator - 1):
        raise ValueError(f"{what} must be a dyadic rational, got {q}")
    return q


class ErrorModelParams(Record):
    """Per-operation error constants, as `Fraction`s; the default model's when omitted.

    `delta` is the relative rounding bound (unit roundoff for binary64),
    `eta` the absolute underflow addend.  Both must be non-negative dyadic
    rationals; note the default eta, 2**-1075, is itself below the least
    subnormal, which is why bounds are kept exact rather than in binary64.
    """

    __slots__ = ("delta", "eta")

    def __init__(self, delta: Fraction | None = None, eta: Fraction | None = None):
        from fractions import Fraction

        delta, eta = (_nonneg_dyadic(name, Fraction(2) ** exp if q is None else Fraction(q))
                      for name, q, exp in (("delta", delta, DELTA_EXP), ("eta", eta, ETA_EXP)))
        if delta >= 1:
            raise ValueError(f"delta must be below 1, got {delta}")
        super().__init__(delta, eta)


class Var(Record):
    __slots__ = ("name",)


class Add(Record):
    __slots__ = ("lhs", "rhs")


class Mul(Record):
    __slots__ = ("lhs", "rhs")


class Fma(Record):
    __slots__ = ("a", "b", "c")


FpExpr = Union[Var, Double, Add, Mul, Fma]


def _operands(e: Add | Mul | Fma) -> tuple[FpExpr, ...]:
    return (e.a, e.b, e.c) if isinstance(e, Fma) else (e.lhs, e.rhs)


def _nodes(*roots: FpExpr) -> list[FpExpr]:
    """Each distinct node of `roots` once, by identity, operands first, left to right: a tree lists in post-order."""
    order, seen, stack = [], set(), [(root, False) for root in reversed(roots)]
    while stack:
        e, operands_listed = stack.pop()
        if id(e) in seen:
            continue
        if operands_listed or isinstance(e, (Var, Double)):
            seen.add(id(e))
            order.append(e)
        else:
            stack += [(e, True), *((x, False) for x in reversed(_operands(e)))]
    return order


def expr_variables(e: FpExpr) -> frozenset[str]:
    return frozenset(x.name for x in _nodes(e) if isinstance(x, Var))


def _shared_variables(original: FpExpr, optimized: FpExpr) -> frozenset[str]:
    """The variables both expressions read; a pair reading different sets has no bound."""
    vs, vs_opt = expr_variables(original), expr_variables(optimized)
    if vs != vs_opt:
        raise MismatchedExpressionsError(f"variable sets differ: {sorted(vs)} vs {sorted(vs_opt)}")
    return vs


# ---------------------------------------------------------------------------
# Bounds


class BoundResult(Record):
    """A sound upper bound plus its per-operation breakdown.

    `magnitude_bound` is exact; `terms` pairs each rounding site's label
    with the error that operation added on top of its operands' errors,
    times its number of paths to the result (the final entry is the
    comparison rounding term).  Terms sum to the bound.
    """

    __slots__ = ("magnitude_bound", "terms")


def eval_bound(b: BoundResult) -> Binary64:
    """The bound as a binary64, rounded upward so it never under-approximates."""
    return round_rational_up(b.magnitude_bound)


def _coerce_mag(name: str, value) -> Fraction:
    from fractions import Fraction

    if isinstance(value, Fraction):
        q = value
    elif isinstance(value, (int, float)):
        if isinstance(value, float) and not is_finite(value):
            raise ValueError(f"magnitude for {name!r} must be finite, got {value!r}")
        q = Fraction(value)
    else:
        raise TypeError(f"magnitude for {name!r} must be a number, got {type(value).__name__}")
    return _nonneg_dyadic(f"magnitude for {name!r}", q)


def _magnitudes(roots: tuple[FpExpr, ...], mags, lift: Callable) -> dict[int, object]:
    """The exact bound on |e| of every node e of `roots`, by `id(e)`, from the magnitudes alone."""
    mag: dict[int, object] = {}
    for e in _nodes(*roots):
        if isinstance(e, (Var, Double)):
            m = mags[e.name] if isinstance(e, Var) else lift(abs(e.v))
        elif isinstance(e, Fma):
            m = mag[id(e.a)] * mag[id(e.b)] + mag[id(e.c)]
        else:
            lhs, rhs = mag[id(e.lhs)], mag[id(e.rhs)]
            m = lhs + rhs if isinstance(e, Add) else lhs * rhs
        mag[id(e)] = m
    return mag


def _errors(root: FpExpr, mag: dict[int, object], delta, eta, zero, prefix: str):
    """The error bound of `root` over the node magnitudes `mag`, and one term per rounding site.

    A term is (label, weight, error after the operation, error of its
    operands).  The weight, shown in the label past 1, is the site's number
    of paths to `root`: its own error counts once per path.
    """
    ops = [e for e in _nodes(root) if not isinstance(e, (Var, Double))]
    err, befores = {}, []
    for e in ops:
        ms, es = zip(*((mag[id(x)], err.get(id(x), zero)) for x in _operands(e)))
        befores.append(before := functools.reduce(add, es))
        # a product's operand errors scale by the other factor's magnitude, and an fma adds its addend's
        pre = before if isinstance(e, Add) else sum(es[2:], es[0] * ms[1] + ms[0] * es[1] + es[0] * es[1])
        err[id(e)] = pre + delta * (mag[id(e)] + pre) + eta
    paths = {id(root): 1}
    for e in reversed(ops):
        for x in _operands(e):
            paths[id(x)] = paths.get(id(x), 0) + paths[id(e)]
    terms = [(f"{prefix}:{type(e).__name__.lower()}[{i}]" + (f" x{w}" if (w := paths[id(e)]) > 1 else ""),
              w, err[id(e)], before) for i, (e, before) in enumerate(zip(ops, befores))]
    return err.get(id(root), zero), terms


def _propagate(original: FpExpr, optimized: FpExpr, mags, delta, eta, lift: Callable):
    """Both sides' magnitude bounds (one if they agree), summed error and `_errors` terms, in `lift`'s coefficients."""
    mag = _magnitudes((original, optimized), mags, lift)
    m1, m2 = mag[id(original)], mag[id(optimized)]
    if original == optimized:
        # identical computations round identically: only the comparison contributes, and no error is walked
        return (m1,), lift(0.0), []
    (e1, t1), (e2, t2) = (_errors(e, mag, delta, eta, lift(0.0), prefix)
                          for e, prefix in ((original, "original"), (optimized, "optimized")))
    return ((m1,) if m1 == m2 else (m1, m2)), e1 + e2, t1 + t2


def derive_bound(
    original: FpExpr,
    optimized: FpExpr,
    mags: Mapping[str, Union[Binary64, int, Fraction]],
    params: ErrorModelParams | None = None,
) -> BoundResult:
    """Bound |original - optimized| as computed in binary64, under `params` or the default model.

    Both expressions read the same inputs, known only by magnitude bounds
    `mags[v] >= |value of v|`; the result over-approximates the distance
    between the two computed values, the comparison's own rounding included.
    """
    from fractions import Fraction

    params = ErrorModelParams() if params is None else params
    vs = _shared_variables(original, optimized)
    missing = sorted(v for v in vs if v not in mags)
    if missing:
        raise UnknownVariableError(f"no magnitude for {', '.join(missing)}")
    qmags = {v: _coerce_mag(v, mags[v]) for v in vs}
    ms, err, terms = _propagate(original, optimized, qmags, params.delta, params.eta, Fraction)
    # The verdict compares the two computed doubles with one more binary64
    # subtraction; both share the exact magnitude bound max(m1, m2).
    cmp_term = params.delta * max(ms) + params.eta
    return BoundResult(
        magnitude_bound=err + cmp_term,
        terms=(*((label, w * (after - before)) for label, w, after, before in terms), ("comparison", cmp_term)),
    )


def _paper_formula(A, B, C, d, h, one, two):
    """The published formula over any coefficient type with + and *: `epsilon_fma_paper` and `compile_paper_bound`."""
    inner = A * B * C * d + h + A * B * (two * d + d * d) + h * (one + d) + C * d + h
    return inner * (one + d) + h


def fma_roles(original: FpExpr, optimized: FpExpr) -> tuple[str, str, str] | None:
    """The variables in the roles (a, b, c) when the pair is a*b+c against fma(a, b, c), up to commutativity."""
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
    params: ErrorModelParams | None = None,
) -> Fraction:
    """Closed-form published bound for a*b+c versus fma(a, b, c), verbatim, under `params` or the default model.

    Transcribed exactly as published, including the first |a*b*c| factor
    (see the audit mode of the validator, which flags inputs where this
    formula and `derive_bound` disagree on the verdict).
    """
    params = ErrorModelParams() if params is None else params
    mags = (_coerce_mag(name, q) for name, q in (("abs_a", abs_a), ("abs_b", abs_b), ("abs_c", abs_c)))
    return _paper_formula(*mags, params.delta, params.eta, 1, 2)


# ---------------------------------------------------------------------------
# Compiled per-sample evaluation
#
# For a fixed pair the derived bound is a polynomial in the input magnitudes
# with non-negative coefficients (or the max of two, when the sides' exact
# magnitudes differ), compiled once: coefficients rounded up to floats, a
# float evaluation inflated by a slack that dominates its own roundings, and
# an exact fallback for magnitudes too large for it, so the result lies
# between the exact bound and slack times it.


# The package has three size limits, and each refusal names its limit:
# `MAX_EXPR_DEPTH` in `refinement`, which `recover_expr` checks before any
# bound is built, and the two below, which `_Poly.__mul__` checks before
# each product.

# the most bits, numerator and denominator together, that the largest
# coefficients of a product's two factors may take up between them.  Each
# squaring in a chain doubles them: five squarings of `%0` plus `%1` against
# their fma reach 35,025 bits, six would reach 71,121
MAX_COEFF_BITS = 1 << 16
# the most monomial products one multiplication may take.  An n-term dot
# product needs n + 1 monomials and a Horner chain of k steps 2k + 1, but a
# product of sums doubles them with every sum: twelve two-term sums make
# 4,096, whose exact path compiles in about a second
MAX_MONOMIALS = 1 << 12


def _lowest_terms(n: int, exp: int) -> tuple[int, int]:
    """`n * 2**exp` as `num * 2**e`, `e <= 0`, with `num / 2**-e` a fraction in lowest terms."""
    if exp >= 0:
        return n << exp, 0
    # the factors of two in n, up to -exp of them, cancel against the denominator
    t = min((n & -n).bit_length() - 1, -exp)
    return n >> t, exp + t


class _Poly:
    """Polynomial over the input magnitudes: `terms` maps each monomial, a tuple of powers, to an integer.

    A coefficient is its integer times `2**exp`.  The form is canonical, so
    `==` is value equality: no integer is 0, the factors of two they all
    share are in `exp`, and the polynomial without terms has `exp` 0.
    `coeffs` is the exact view, as `Fraction`s, built on each read.
    """

    __slots__ = ("terms", "exp")

    def __init__(self, terms: dict[tuple[int, ...], int], exp: int):
        if 0 in terms.values():
            terms = {k: v for k, v in terms.items() if v}
        shared = functools.reduce(or_, terms.values(), 0)
        shift = (shared & -shared).bit_length() - 1 if shared else 0
        self.terms = {k: v >> shift for k, v in terms.items()} if shift else terms
        self.exp = exp + shift if terms else 0

    @classmethod
    def const(cls, q, nvars: int, exp: int = 0) -> _Poly:
        """The constant `q * 2**exp`, for an int, float or Fraction `q` whose denominator is a power of two."""
        num, den = q.as_integer_ratio()
        if den & (den - 1):
            raise ValueError(f"bound polynomial coefficient must be a dyadic rational, got {q}")
        return cls({(0,) * nvars: num}, exp + 1 - den.bit_length())

    @classmethod
    def variable(cls, index: int, nvars: int) -> _Poly:
        return cls({tuple(1 if i == index else 0 for i in range(nvars)): 1}, 0)

    @property
    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        from fractions import Fraction

        scale = Fraction(2) ** self.exp
        return {k: v * scale for k, v in self.terms.items()}

    def __add__(self, other: _Poly) -> _Poly:
        if not (self.terms and other.terms):
            return self if self.terms else other
        low = min(self.exp, other.exp)
        out = {k: v << self.exp - low for k, v in self.terms.items()} if self.exp > low else dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + (v << other.exp - low)
        return _Poly(out, low)

    def _bits(self) -> int:
        """The size of the largest coefficient as a fraction in lowest terms: numerator bits plus denominator bits."""
        lowest = (_lowest_terms(v, self.exp) for v in self.terms.values())
        return max((num.bit_length() + 1 - e for num, e in lowest), default=0)

    def __mul__(self, other: _Poly) -> _Poly:
        # refused before multiplying, since the product is what takes the time
        for n, cap, what in ((self._bits() + other._bits(), MAX_COEFF_BITS, "-bit coefficients"),
                             (len(self.terms) * len(other.terms), MAX_MONOMIALS, " monomial products")):
            if n > cap:
                raise CoefficientLimitError(f"bound polynomial needs {n}{what}, over the error model's limit of {cap}")
        out: dict[tuple[int, ...], int] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(map(add, k1, k2))
                out[key] = out.get(key, 0) + v1 * v2
        return _Poly(out, self.exp + other.exp)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Poly) and self.exp == other.exp and self.terms == other.terms


_EVAL_REL_SLACK = 1.0 + 2.0**-40
_EVAL_ABS_SLACK = 2.0**-1050
# operands per generated statement, which keeps the compiler's recursion shallow
_CHUNK = 32
# exact-path results kept per compiled bound, keyed by the magnitude tuple.
# The capped special corpus reaches at most 229 distinct exact-path tuples
# per bound through `check_reference`, and 32 (canonical) or 36 (8-term dot
# product) through `validate`; 512 keeps them all while capping what random
# traffic can fill (a 3-tuple entry is about 250 bytes)
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
    the rest, so a subnormal intermediate is never amplified back up.
    Magnitudes that could overflow the leading factors, or amplify a
    subnormal coefficient's rounding past the absolute slack, and inf and
    nan, go to the exact path (`_compile_exact`, memoised per `_EXACT_MEMO`).
    """

    __slots__ = ("_nvars", "_parts", "_rel_slack", "_mag_limit", "_eval", "_exact")

    def __init__(self, polys: tuple[_Poly, ...], nvars: int):
        self._nvars = nvars
        # tiny_degree: the highest degree of a monomial whose coefficient is subnormal
        parts, exact_parts, n_ops, max_degree, tiny_degree = [], [], 0, 0, 0
        for poly in polys:
            mons, exact = [], []
            for key in sorted(poly.terms):
                # the coefficient is num * 2**exp
                num, exp = _lowest_terms(poly.terms[key], poly.exp)
                if num < 0:
                    raise ValueError(f"bound polynomial coefficient must be non-negative, got {poly.coeffs[key]}")
                idxs = tuple(i for i, p in enumerate(key) for _ in range(p))
                coeff_f = _round_dyadic(num, exp, False)
                mons.append((coeff_f, idxs))
                exact.append((num, exp, idxs))
                n_ops += 2 * len(idxs) + 2
                max_degree = max(max_degree, len(idxs))
                if coeff_f < MIN_NORMAL:
                    tiny_degree = max(tiny_degree, len(idxs))
            parts.append(tuple(mons))
            exact_parts.append(tuple(exact))
        self._parts = tuple(parts)
        # one rounding per multiply or add, relative in the normal range
        self._rel_slack = max(_EVAL_REL_SLACK, 1.0 + n_ops * 2.0**-50)
        # keep every prefix product of large factors, times the coefficient,
        # summed over a part's monomials, clear of overflow: above this
        # input magnitude go exact instead (inf and nan always do)
        coeffs = [(num, exp) for exact in exact_parts for num, exp, _ in exact]
        low = min((exp for _, exp in coeffs), default=0)
        top, top_exp = max(coeffs, key=lambda c: c[0] << c[1] - low, default=(0, 0))
        coeff_exp = top.bit_length() + 1 if top > 1 << -top_exp else 1
        count_exp = max(len(p) for p in parts).bit_length() if parts else 1
        self._mag_limit = 2.0 ** ((1020 - coeff_exp - count_exp) // max_degree) if max_degree else MAX_FINITE
        if tiny_degree:
            # a subnormal coefficient rounds up by less than 2**-1074, times the large factors:
            # keep their product under 2**20 over the monomial count, below the absolute slack
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

        The float path looks it up on each call: a bound compiled before `bench/tracing.py` wraps it is still traced.
        """
        return self._exact(*mags)

    def __call__(self, mags: tuple[float, ...]) -> float:
        return self._eval(mags)


def _compile_exact(parts, nvars: int) -> Callable:
    """The bound at magnitudes `m0` ... `m{nvars-1}` exactly, rounded up, as generated code; inf or nan gives inf.

    `parts` holds each monomial as (coefficient numerator, its power-of-two
    exponent, variable indices).  Magnitude i is `n{i} * 2**(e{i} - 53)`,
    monomial j of part k `N{k}_{j} * 2**E{k}_{j}` (coefficients as hex
    literals, free of the decimal digit limit); each part sums its monomials
    shifted to the least exponent `low`, and the largest is rounded up once.
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

    `var_order`, covering every variable the expressions read, orders the magnitude tuple it takes.
    """
    return CompiledBound(_derived_polys(original, optimized, var_order), len(var_order))


def _derived_polys(
    original: FpExpr, optimized: FpExpr, var_order: tuple[str, ...], params: ErrorModelParams | None = None
) -> tuple[_Poly, ...]:
    """derive_bound for this pair, under `params` or the default model, as polynomials; the bound is their maximum."""
    vs = _shared_variables(original, optimized)
    missing = sorted(v for v in vs if v not in var_order)
    if missing:
        raise UnknownVariableError(f"no position for {', '.join(missing)}")
    n = len(var_order)
    mags = {v: _Poly.variable(i, n) for i, v in enumerate(var_order)}
    consts = ((1, DELTA_EXP), (1, ETA_EXP)) if params is None else ((params.delta, 0), (params.eta, 0))
    delta, eta = (_Poly.const(q, n, exp) for q, exp in consts)
    ms, err, _ = _propagate(original, optimized, mags, delta, eta, lambda q: _Poly.const(q, n))
    return tuple(err + delta * m + eta for m in ms)


@functools.cache
def compile_paper_bound() -> CompiledBound:
    """Compile epsilon_fma_paper into a fast evaluator over (|a|, |b|, |c|), once per process."""
    A, B, C = (_Poly.variable(i, 3) for i in range(3))
    d, h, one, two = (_Poly.const(1, 3, exp) for exp in (DELTA_EXP, ETA_EXP, 0, 1))
    return CompiledBound((_paper_formula(A, B, C, d, h, one, two),), 3)
