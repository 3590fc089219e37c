"""Round-off bound derivation: frozen identities, invariants, compiled form."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fma_tv.error_model import (
    Add,
    BoundResult,
    CompiledBound,
    Const,
    ErrorModelParams,
    Fma,
    MismatchedExpressionsError,
    Mul,
    UnknownVariableError,
    Var,
    compile_derived_bound,
    compile_paper_bound,
    derive_bound,
    epsilon_fma_paper,
    eval_bound,
    expr_variables,
    fma_roles,
    _EVAL_ABS_SLACK,
    _EXACT_MEMO,
    _Poly,
    _derived_polys,
    _paper_formula,
)
from fma_tv.fp_semantics import (
    MAX_FINITE,
    MAX_SUBNORMAL,
    MIN_NORMAL,
    MIN_SUBNORMAL,
    is_finite,
    round_rational_up,
)
from fma_tv._bits import bits_of
from fma_tv.cli import special_values
from oracles import oracle_add, oracle_fma, oracle_mul, oracle_sub
from strategies import contract, expr_trees, moderate_double

D = Fraction(1, 2**53)
H = Fraction(1, 2**1075)

ORIG = Add(Mul(Var("a"), Var("b")), Var("c"))
OPT = Fma(Var("a"), Var("b"), Var("c"))
ONES = {"a": 1, "b": 1, "c": 1}

mags = st.floats(min_value=0.0, max_value=1e100, allow_nan=False)


# ---------------------------------------------------------------------------
# parameters


def test_default_params():
    p = ErrorModelParams()
    assert p.delta == D
    assert p.eta == H


def test_params_validation():
    with pytest.raises(ValueError):
        ErrorModelParams(delta=Fraction(-1, 2))
    with pytest.raises(ValueError):
        ErrorModelParams(eta=Fraction(-1))
    with pytest.raises(ValueError):
        ErrorModelParams(delta=Fraction(1, 3))
    with pytest.raises(ValueError):
        ErrorModelParams(eta=Fraction(1, 10))
    with pytest.raises(ValueError):
        ErrorModelParams(delta=Fraction(1))
    with pytest.raises(ValueError):
        ErrorModelParams(delta=Fraction(3, 2))
    # exact arithmetic with no rounding at all is a legal degenerate model
    assert ErrorModelParams(delta=0, eta=0).delta == 0


# ---------------------------------------------------------------------------
# expressions


def test_expr_variables():
    assert expr_variables(ORIG) == frozenset({"a", "b", "c"})
    assert expr_variables(Const(3.0)) == frozenset()
    assert expr_variables(Fma(Var("x"), Const(1.0), Var("x"))) == frozenset({"x"})


def eval_oracle(e, env):
    """Evaluate with the reference arithmetic of `oracles` (Fma as a single rounding)."""
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Add):
        return oracle_add(eval_oracle(e.lhs, env), eval_oracle(e.rhs, env))
    if isinstance(e, Mul):
        return oracle_mul(eval_oracle(e.lhs, env), eval_oracle(e.rhs, env))
    return oracle_fma(eval_oracle(e.a, env), eval_oracle(e.b, env), eval_oracle(e.c, env))


# ---------------------------------------------------------------------------
# frozen identities for the derived and published bounds


def test_canonical_bound_identity():
    # independent transcription of the propagation rules, kept exact:
    #   mul:  m = 1, err = d + h
    #   add:  m = 2, err = (d+h) + d*(2 + d+h) + h
    #   fma:  m = 2, err = 2d + h
    #   cmp:  d*max(2, 2) + h
    expected = (
        (D + H)
        + (D * (2 + D + H) + H)
        + (2 * D + H)
        + (2 * D + H)
    )
    assert expected == 7 * D + D * D + 4 * H + D * H
    br = derive_bound(ORIG, OPT, ONES)
    assert br.magnitude_bound == expected


def test_canonical_bound_term_labels():
    br = derive_bound(ORIG, OPT, ONES)
    assert [label for label, _ in br.terms] == [
        "original:mul[0]",
        "original:add[1]",
        "optimized:fma[0]",
        "comparison",
    ]


def test_paper_formula_identities():
    assert epsilon_fma_paper(0, 0, 0) == H * (2 + D) ** 2
    assert epsilon_fma_paper(1, 1, 1) == 4 * D + 5 * D**2 + D**3 + H * (
        4 + 4 * D + D**2
    )


def test_paper_formula_first_order():
    assert abs(epsilon_fma_paper(1, 1, 1) / D - 4) < Fraction(1, 10**12)


def test_derived_within_factor_two_of_paper():
    derived = derive_bound(ORIG, OPT, ONES).magnitude_bound
    paper = epsilon_fma_paper(1, 1, 1)
    assert derived < 2 * paper
    assert abs(derived / paper - Fraction(7, 4)) < Fraction(1, 10**12)


def test_identity_pair_bound():
    # structurally identical sides round identically, so only the final
    # comparison subtraction contributes
    br = derive_bound(ORIG, ORIG, ONES)
    assert br.terms == (("comparison", 2 * D + H),)
    assert br.magnitude_bound == 2 * D + H
    br2 = derive_bound(ORIG, ORIG, {"a": 3, "b": 5, "c": 7})
    assert br2.magnitude_bound == 22 * D + H
    assert derive_bound(ORIG, ORIG, {"a": 3, "b": Fraction(5), "c": 7}) == br2


def test_zero_params_zero_bound():
    p0 = ErrorModelParams(delta=0, eta=0)
    br = derive_bound(ORIG, OPT, ONES, params=p0)
    assert br.magnitude_bound == 0
    assert eval_bound(br) == 0.0
    assert epsilon_fma_paper(1, 1, 1, params=p0) == 0


# ---------------------------------------------------------------------------
# eval_bound rounding direction


def test_eval_bound_frozen():
    def as_float(q):
        return eval_bound(BoundResult(q, (("comparison", q),)))

    z = as_float(Fraction(0))
    assert z == 0.0 and math.copysign(1.0, z) == 1.0
    assert bits_of(as_float(Fraction(1, 2**51))) == 0x3CC0000000000000
    assert as_float(Fraction(2) ** 2000) == math.inf
    # below the least subnormal still rounds up to something positive
    assert as_float(H) == MIN_SUBNORMAL


# ---------------------------------------------------------------------------
# derivation invariants


def picks_from(flags):
    return itertools.cycle(flags or [True])


pairs = st.tuples(
    expr_trees(),
    st.lists(st.booleans(), max_size=8),
).map(lambda t: (t[0], contract(t[0], picks_from(t[1]))))

mag_envs = st.fixed_dictionaries({v: mags for v in ("a", "b", "c")})


@given(pairs, mag_envs)
def test_terms_sum_to_bound(pair, env):
    e1, e2 = pair
    br = derive_bound(e1, e2, env)
    assert sum(t for _, t in br.terms) == br.magnitude_bound


@given(pairs, mag_envs, mag_envs)
def test_bound_monotone_in_magnitudes(pair, env_a, env_b):
    e1, e2 = pair
    lo = {v: min(env_a[v], env_b[v]) for v in env_a}
    hi = {v: max(env_a[v], env_b[v]) for v in env_a}
    lo_bound = derive_bound(e1, e2, lo).magnitude_bound
    hi_bound = derive_bound(e1, e2, hi).magnitude_bound
    assert lo_bound <= hi_bound


@settings(max_examples=300)
@given(
    pairs,
    st.fixed_dictionaries({v: moderate_double for v in ("a", "b", "c")}),
)
def test_bound_sound_on_samples(pair, env):
    # the central soundness claim: for inputs within the stated magnitudes,
    # the two computed values differ by at most the derived bound; the
    # values come from the oracle arithmetic, not from the package
    e1, e2 = pair
    v1 = eval_oracle(e1, env)
    v2 = eval_oracle(e2, env)
    if not (math.isfinite(v1) and math.isfinite(v2)):
        return  # the model only covers overflow-free evaluations
    br = derive_bound(e1, e2, {v: abs(x) for v, x in env.items()})
    assert abs(Fraction(v1) - Fraction(v2)) <= br.magnitude_bound
    diff = oracle_sub(v1, v2)
    if math.isfinite(diff):
        assert abs(Fraction(diff)) <= br.magnitude_bound


# ---------------------------------------------------------------------------
# compiled evaluators agree with the exact reference


SANDWICH_REL = Fraction(1) + Fraction(1, 2**38)
SANDWICH_ABS = Fraction(1, 2**1040)


def assert_sandwich(exact, fast):
    assert is_finite(fast)
    q = Fraction(fast)
    assert exact <= q
    assert q <= exact * SANDWICH_REL + SANDWICH_ABS


@given(mags, mags, mags)
def test_compiled_derived_matches_exact(ma, mb, mc):
    cb = compile_derived_bound(ORIG, OPT, ("a", "b", "c"))
    exact = derive_bound(ORIG, OPT, {"a": ma, "b": mb, "c": mc}).magnitude_bound
    assert_sandwich(exact, cb((ma, mb, mc)))


@given(mags, mags)
def test_compiled_two_part_max(ma, mb):
    # sides with different magnitude polynomials: the compiled form carries
    # one polynomial per side and takes the larger, exactly as the exact
    # derivation takes max(m1, m2) for the comparison term
    e1 = Mul(Var("a"), Var("b"))
    e2 = Add(Var("a"), Var("b"))
    cb = compile_derived_bound(e1, e2, ("a", "b"))
    exact = derive_bound(e1, e2, {"a": ma, "b": mb}).magnitude_bound
    assert_sandwich(exact, cb((ma, mb)))


def test_compiled_two_part_both_branches():
    e1 = Mul(Var("a"), Var("b"))
    e2 = Add(Var("a"), Var("b"))
    cb = compile_derived_bound(e1, e2, ("a", "b"))
    for ma, mb in ((0.5, 0.5), (4.0, 4.0)):
        exact = derive_bound(e1, e2, {"a": ma, "b": mb}).magnitude_bound
        assert_sandwich(exact, cb((ma, mb)))


def test_compiled_identity_pair():
    cb = compile_derived_bound(ORIG, ORIG, ("a", "b", "c"))
    exact = derive_bound(ORIG, ORIG, ONES).magnitude_bound
    assert_sandwich(exact, cb((1.0, 1.0, 1.0)))


@given(mags, mags, mags)
def test_compiled_paper_matches_exact(ma, mb, mc):
    cb = compile_paper_bound()
    exact = epsilon_fma_paper(ma, mb, mc)
    assert_sandwich(exact, cb((ma, mb, mc)))


def test_compiled_survives_subnormal_magnitudes():
    # regression: a subnormal magnitude used to underflow the intermediate
    # coefficient product and silently drop the monomial
    cb = compile_derived_bound(ORIG, OPT, ("a", "b", "c"))
    triple = (2.225073858507203e-309, 83886085.0, 0.0)
    exact = derive_bound(ORIG, OPT, dict(zip("abc", triple))).magnitude_bound
    assert_sandwich(exact, cb(triple))


extreme = st.floats(min_value=0.0, max_value=1.7e308, allow_nan=False)


@given(extreme, extreme, extreme)
def test_compiled_extreme_magnitudes(ma, mb, mc):
    # magnitudes beyond the float fast path route through exact evaluation
    cb = compile_derived_bound(ORIG, OPT, ("a", "b", "c"))
    exact = derive_bound(ORIG, OPT, {"a": ma, "b": mb, "c": mc}).magnitude_bound
    fast = cb((ma, mb, mc))
    if is_finite(fast):
        assert_sandwich(exact, fast)
    else:
        # only a bound that truly has no binary64 home may round to inf
        assert exact > Fraction(1.7976931348623157e308)


@pytest.mark.parametrize("magnitude", [mags, extreme], ids=["mags", "extreme"])
@given(pair=st.one_of(pairs, st.tuples(expr_trees(), expr_trees())), data=st.data())
def test_compiled_derived_matches_exact_on_random_pairs(magnitude, pair, data):
    # a tree against its contraction has one magnitude polynomial; two
    # unrelated trees usually have two, which the compiled form joins by max
    e1, e2 = pair
    ms = data.draw(st.tuples(magnitude, magnitude, magnitude))
    fast = compile_derived_bound(e1, e2, ("a", "b", "c"))(ms)
    exact = derive_bound(e1, e2, dict(zip("abc", ms))).magnitude_bound
    if is_finite(fast):
        assert_sandwich(exact, fast)
    else:
        # inf only where the sandwich's upper end leaves the format
        assert exact * SANDWICH_REL + SANDWICH_ABS > Fraction(MAX_FINITE)


# the exact fallback, called directly, against the Fraction reference
exact_mags = st.one_of(
    st.sampled_from([0.0, MIN_SUBNORMAL, MAX_SUBNORMAL, MIN_NORMAL, MAX_FINITE]),
    st.integers(min_value=-1074, max_value=1023).map(lambda k: math.ldexp(1.0, k)),
    st.floats(min_value=0.0, max_value=MAX_FINITE),
)
# eta multiplied through: a subnormal coefficient on a degree-one monomial
TINY_COEFF_PAIR = (Mul(Var("c"), Add(Var("a"), Var("a"))), Mul(Add(Var("a"), Var("a")), Var("c")))


@given(
    pair=st.one_of(pairs, st.tuples(expr_trees(), expr_trees()), st.just(TINY_COEFF_PAIR)),
    ms=st.tuples(exact_mags, exact_mags, exact_mags),
)
@example(pair=TINY_COEFF_PAIR, ms=(MIN_SUBNORMAL, 0.0, 1.7e10))
@example(pair=(ORIG, OPT), ms=(2.0**1023, 2.0**1023, 2.0**1023))
def test_exact_path_equals_fraction_reference(pair, ms):
    e1, e2 = pair
    exact = derive_bound(e1, e2, dict(zip("abc", ms))).magnitude_bound
    fast = compile_derived_bound(e1, e2, ("a", "b", "c"))._eval_exact(ms)
    assert bits_of(fast) == bits_of(round_rational_up(exact))


@given(st.tuples(exact_mags, exact_mags, exact_mags))
@example((2.0**1023, 2.0**1023, 2.0**1023))  # exact inputs whose bound rounds to inf
def test_exact_paper_path_equals_fraction_reference(ms):
    fast = compile_paper_bound()._eval_exact(ms)
    assert bits_of(fast) == bits_of(round_rational_up(epsilon_fma_paper(*ms)))


# the generated exact path against its polynomials evaluated over Fraction


def fraction_bound(polys, ms):
    """The largest of `polys` at magnitudes `ms`, over Fraction, rounded up once."""
    qs = [Fraction(m) for m in ms]
    best = Fraction(0)
    for poly in polys:
        total = Fraction(0)
        for key, coeff in poly.coeffs.items():
            for q, p in zip(qs, key):
                if p:
                    coeff *= q**p
            total += coeff
        best = max(best, total)
    return round_rational_up(best)


def dot_pair(terms):
    """An n-term dot product summed left to right against its fmuladd chain, over x0 ... x{2n-1}."""
    xs = [Var(f"x{i}") for i in range(2 * terms)]
    orig = opt = Mul(xs[0], xs[1])
    for i in range(1, terms):
        orig = Add(orig, Mul(xs[2 * i], xs[2 * i + 1]))
        opt = Fma(xs[2 * i], xs[2 * i + 1], opt)
    return orig, opt, tuple(str(x.name) for x in xs)


def paper_polys():
    A, B, C = (_Poly.variable(i, 3) for i in range(3))
    consts = (DEFAULT_PARAMS.delta, DEFAULT_PARAMS.eta, Fraction(1), Fraction(2))
    return (_paper_formula(A, B, C, *(_Poly.const(q, 3) for q in consts)),)


def product_of_sums(n_sums):
    """(3/4 x0 + 5/8 x1)(3/4 x2 + 5/8 x3)...: 2**n_sums monomials of degree n_sums."""
    nvars = 2 * n_sums
    poly = _Poly.const(Fraction(1), nvars)
    for i in range(n_sums):
        poly = poly * (
            _Poly.variable(2 * i, nvars) * _Poly.const(Fraction(3, 4), nvars)
            + _Poly.variable(2 * i + 1, nvars) * _Poly.const(Fraction(5, 8), nvars)
        )
    return (poly,)


DEFAULT_PARAMS = ErrorModelParams()
DOT16 = dot_pair(8)
# a normal mantissa over every binade, subnormal results included
binade_mags = st.builds(math.ldexp, st.integers(2**52, 2**53 - 1), st.integers(-1126, 971))
edge_mags = st.sampled_from([0.0, MIN_SUBNORMAL, MIN_NORMAL, 1.0, MAX_FINITE])
exact_path_mags = st.one_of(edge_mags, binade_mags)


@pytest.mark.parametrize("polys", [
    _derived_polys(ORIG, OPT, ("a", "b", "c"), DEFAULT_PARAMS),
    _derived_polys(ORIG, OPT, ("a", "b", "c", "unread"), DEFAULT_PARAMS),
    _derived_polys(Mul(Var("a"), Var("b")), Add(Var("a"), Var("b")), ("a", "b"), DEFAULT_PARAMS),
    paper_polys(),
], ids=["canonical-derived", "canonical-derived-unread", "two-part", "paper"])
@given(data=st.data())
def test_generated_exact_path_equals_fraction_polys(polys, data):
    ms = data.draw(st.tuples(*[exact_path_mags] * len(next(iter(polys[0].coeffs)))))
    assert bits_of(CompiledBound(polys, len(ms))._eval_exact(ms)) == bits_of(fraction_bound(polys, ms))


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[exact_path_mags] * 16))
def test_generated_exact_path_equals_fraction_polys_dot16(ms):
    polys = _derived_polys(*DOT16, DEFAULT_PARAMS)
    fast = compile_derived_bound(*DOT16)._eval_exact(ms)
    assert bits_of(fast) == bits_of(fraction_bound(polys, ms))


def test_generated_exact_path_chunks_a_4096_monomial_part():
    # one sum of 4096 shifted monomials: past what one expression can compile
    polys = product_of_sums(12)
    assert len(polys[0].coeffs) == 4096
    bound = CompiledBound(polys, 24)
    rng = random.Random(10)
    cases = [(m,) * 24 for m in (0.0, MIN_SUBNORMAL, MIN_NORMAL, 1.0, MAX_FINITE)]
    cases.append(tuple([0.0, MIN_SUBNORMAL, MIN_NORMAL, 1.0, MAX_FINITE, 3.5] * 4))
    cases += [tuple(math.ldexp(rng.getrandbits(53) | 1 << 52, rng.randint(-1126, 971)) for _ in range(24))
              for _ in range(2)]
    for ms in cases:
        assert bits_of(bound._eval_exact(ms)) == bits_of(fraction_bound(polys, ms)), ms
    for bad in (math.inf, math.nan):
        assert bound._eval_exact((1.0,) * 23 + (bad,)) == math.inf


@pytest.mark.parametrize("bound, n", [
    (compile_derived_bound(ORIG, OPT, ("a", "b", "c", "unread")), 4),
    (compile_paper_bound(), 3),
    (compile_derived_bound(*DOT16), 16),
], ids=["canonical-derived-unread", "paper", "dot16"])
def test_generated_exact_path_is_inf_for_non_finite_magnitudes(bound, n):
    for bad in (math.inf, math.nan):
        for i in range(n):
            for fill in (0.0, MIN_SUBNORMAL, 1.0, MAX_FINITE):
                mags = tuple(bad if j == i else fill for j in range(n))
                assert bound._eval_exact(mags) == math.inf, mags
                # every magnitude routes, read or not
                assert bound(mags) == math.inf, mags


# the exact path's memo: bounded, and a repeated key gives what a fresh evaluator computes


def test_exact_memo_is_bounded():
    bound = compile_derived_bound(ORIG, OPT, ("a", "b", "c"))
    rng = random.Random(20)
    for _ in range(5000):
        bound._eval_exact(tuple(math.ldexp(rng.getrandbits(53) | 1 << 52, rng.randint(-1126, 971)) for _ in range(3)))
    info = bound._exact.cache_info()
    assert info.misses == 5000
    assert info.currsize <= _EXACT_MEMO == 512


MEMO_CASES = {  # name: (polynomials, magnitude count)
    "canonical-derived": (_derived_polys(ORIG, OPT, ("a", "b", "c"), DEFAULT_PARAMS), 3),
    "canonical-derived-unread": (_derived_polys(ORIG, OPT, ("a", "b", "c", "unread"), DEFAULT_PARAMS), 4),
    "paper": (paper_polys(), 3),
    "dot16": (_derived_polys(*DOT16, DEFAULT_PARAMS), 16),
}


@pytest.mark.parametrize("case", MEMO_CASES)
def test_exact_memo_repeats_the_fresh_bits(case):
    polys, n = MEMO_CASES[case]
    rng = random.Random(21)
    keys = [(MAX_FINITE,) * n, (0.0,) * (n - 1) + (MAX_FINITE,), (MIN_SUBNORMAL,) * (n - 1) + (MAX_FINITE,)]
    keys += [tuple(math.ldexp(rng.getrandbits(53) | 1 << 52, rng.randint(-1126, 971)) for _ in range(n))
             for _ in range(4)]
    # inf and nan in every position, the unread fourth magnitude of the unread case included
    bad = [(1.0,) * i + (x,) + (MAX_FINITE,) * (n - 1 - i) for x in (math.inf, math.nan) for i in range(n)]
    memo = CompiledBound(polys, n)
    for ms in keys + bad:
        want = fraction_bound(polys, ms) if all(map(math.isfinite, ms)) else math.inf
        for _ in range(2):
            assert bits_of(memo._eval_exact(ms)) == bits_of(want), ms
        assert bits_of(CompiledBound(polys, n)._eval_exact(ms)) == bits_of(want), ms
    info = memo._exact.cache_info()
    assert (info.misses, info.hits) == (len(keys + bad), len(keys + bad))
    # an equal key, not the same tuple, hits as well, and a repeat of a new nan object still gives inf
    assert bits_of(memo._eval_exact(tuple(list(keys[0])))) == bits_of(fraction_bound(polys, keys[0]))
    assert memo._eval_exact((float("nan"),) + (1.0,) * (n - 1)) == math.inf
    assert memo._exact.cache_info().hits == len(keys + bad) + 1


def test_exact_memo_paper_bound_repeats_round_rational_up():
    bound = compile_paper_bound()
    for ms in ((MAX_FINITE, 1.0, 3.0), (2.0**1023, 2.0**1023, 2.0**1023), (MIN_SUBNORMAL, MAX_FINITE, 0.0)):
        want = round_rational_up(epsilon_fma_paper(*ms))
        assert bits_of(bound._eval_exact(ms)) == bits_of(bound._eval_exact(ms)) == bits_of(want)


def test_fma_roles_modulo_commutativity():
    x, y, z = Var("x"), Var("y"), Var("z")
    opt = Fma(z, y, x)
    for orig in (Add(Mul(z, y), x), Add(Mul(y, z), x), Add(x, Mul(z, y)), Add(x, Mul(y, z))):
        assert fma_roles(orig, opt) == ("z", "y", "x")
    assert fma_roles(ORIG, OPT) == ("a", "b", "c")
    assert fma_roles(OPT, ORIG) is None
    assert fma_roles(Add(Mul(x, z), y), opt) is None  # other roles
    assert fma_roles(Add(Mul(Var("a"), Var("b")), Const(1.0)), Fma(Var("a"), Var("b"), Const(1.0))) is None
    assert fma_roles(Add(Add(x, y), z), Add(x, Add(y, z))) is None


def loop_float_path(bound, ms):
    """The float path as a loop in data-dependent order: factors >= 1, coefficient, the rest."""
    best = 0.0
    for mons in bound._parts:
        acc = 0.0
        for coeff, idxs in mons:
            term = 1.0
            for i in idxs:
                if ms[i] >= 1.0:
                    term *= ms[i]
            term *= coeff
            for i in idxs:
                if ms[i] < 1.0:
                    term *= ms[i]
            acc += term
        if acc > best:
            best = acc
    return best * bound._rel_slack + _EVAL_ABS_SLACK


float_mags = st.one_of(
    st.sampled_from([0.0, MIN_SUBNORMAL, MAX_SUBNORMAL, MIN_NORMAL, 1.0, math.nextafter(1.0, 0.0)]),
    st.floats(min_value=0.0, max_value=1e60),
)


@given(
    pair=st.one_of(pairs, st.tuples(expr_trees(), expr_trees()), st.just(TINY_COEFF_PAIR)),
    ms=st.tuples(float_mags, float_mags, float_mags),
)
def test_generated_float_path_equals_the_loop(pair, ms):
    for bound in (compile_derived_bound(*pair, ("a", "b", "c")), compile_paper_bound()):
        if all(m <= bound._mag_limit for m in ms):
            assert bits_of(bound(ms)) == bits_of(loop_float_path(bound, ms))


def test_generated_float_path_splits_long_sums_and_products():
    # 41 monomials, the longest of degree 40: past one statement's worth of operands
    x = _Poly.variable(0, 2)
    poly, power = _Poly.const(Fraction(3, 4), 2), _Poly.const(Fraction(1), 2)
    for _ in range(40):
        power = power * x
        poly = poly + power * _Poly.const(Fraction(5, 8), 2)
    bound = CompiledBound((poly, poly + _Poly.variable(1, 2)), 2)
    for ms in ((1.0, 2.0), (1.01, 0.5), (0.99, 3.0), (0.0, 0.0), (bound._mag_limit, MIN_SUBNORMAL)):
        assert bits_of(bound(ms)) == bits_of(loop_float_path(bound, ms))
        # the exact path rounds up, so it can only loosen the upper end
        assert_sandwich(Fraction(bound._eval_exact(ms)), bound(ms))


def test_compiled_bound_rejects_bad_coefficients():
    with pytest.raises(ValueError, match="must be a dyadic rational"):
        CompiledBound((_Poly.const(Fraction(1, 3), 1),), 1)
    with pytest.raises(ValueError, match="must be non-negative"):
        CompiledBound((_Poly.const(Fraction(-1, 4), 1),), 1)


@pytest.mark.parametrize(
    "bound, n",
    [
        (compile_derived_bound(ORIG, OPT, ("a", "b", "c")), 3),
        (compile_derived_bound(ORIG, ORIG, ("a", "b", "c")), 3),
        (compile_derived_bound(Mul(Var("a"), Var("b")), Add(Var("a"), Var("b")), ("a", "b")), 2),
        (compile_paper_bound(), 3),
        # a constant polynomial reads no magnitude, yet a non-finite one still gives inf
        (compile_derived_bound(Const(1.0), Const(1.0), ("%0",)), 1),
        (compile_derived_bound(Var("a"), Var("a"), ("a", "unread")), 2),
    ],
    ids=["canonical", "identity", "two-part", "paper", "constant", "unread-variable"],
)
def test_compiled_bound_is_inf_for_non_finite_magnitudes(bound, n):
    for bad in (math.inf, math.nan):
        for i in range(n):
            for fill in (0.0, 1.0, MAX_FINITE):
                mags = tuple(bad if j == i else fill for j in range(n))
                assert bound(mags) == math.inf, mags
    assert is_finite(bound((1.0,) * n))


# every bound lies in [0, inf], never nan, so a sample whose differences are all 0.0 passes under
# any of them: the generated check returns early on such a sample without evaluating its bounds.
# Magnitudes: the special corpus's 8, then inf and nan, whose float products could be nan (0 * inf)
CORPUS_MAGS = (*sorted({abs(v) for v in special_values()}), math.inf, math.nan)


def corpus_mag_tuples(n):
    """Every n-tuple of CORPUS_MAGS for n <= 3; else each value in each position over each fill,
    a 0.0 against an inf in each adjacent pair, and 500 seeded draws."""
    if n <= 3:
        return list(itertools.product(CORPUS_MAGS, repeat=n))
    out = [tuple(v if j == i else fill for j in range(n))
           for fill in CORPUS_MAGS for v in CORPUS_MAGS for i in range(n)]
    out += [tuple(pair[j - i] if j - i in (0, 1) else fill for j in range(n))
            for fill in CORPUS_MAGS for pair in ((0.0, math.inf), (math.inf, 0.0)) for i in range(0, n, 2)]
    rng = random.Random(22)
    return out + [tuple(rng.choice(CORPUS_MAGS) for _ in range(n)) for _ in range(500)]


@pytest.mark.parametrize("bound", [
    compile_derived_bound(ORIG, OPT, ("a", "b", "c")),
    compile_derived_bound(*DOT16),
    compile_paper_bound(),
], ids=["canonical", "dot8", "paper"])
def test_compiled_bounds_are_never_negative_or_nan(bound):
    for ms in corpus_mag_tuples(bound._nvars):
        assert 0.0 <= bound(ms), ms


@settings(max_examples=50, deadline=None)
@given(st.one_of(pairs, st.tuples(expr_trees(), expr_trees())))
def test_compiled_bounds_are_never_negative_or_nan_on_random_pairs(pair):
    bound = compile_derived_bound(*pair, ("a", "b", "c"))
    for ms in corpus_mag_tuples(3):
        assert 0.0 <= bound(ms), ms


# ---------------------------------------------------------------------------
# errors


def test_mismatched_variable_sets():
    with pytest.raises(MismatchedExpressionsError):
        derive_bound(Add(Var("a"), Var("b")), Var("a"), {"a": 1, "b": 1})


def test_compiled_bound_refuses_mismatched_variable_sets():
    # the exact and the compiled derivation apply one variable-set rule
    e1, e2 = Add(Var("%0"), Var("%0")), Add(Var("%1"), Var("%1"))
    for derive in (lambda: derive_bound(e1, e2, {"%0": 1, "%1": 1}),
                   lambda: compile_derived_bound(e1, e2, ("%0", "%1"))):
        with pytest.raises(MismatchedExpressionsError) as exc:
            derive()
        assert str(exc.value) == "variable sets differ: ['%0'] vs ['%1']"


def test_missing_magnitude():
    with pytest.raises(UnknownVariableError):
        derive_bound(ORIG, OPT, {"a": 1, "b": 1})
    with pytest.raises(UnknownVariableError):
        compile_derived_bound(ORIG, OPT, ("a", "b"))


def test_bad_magnitudes():
    with pytest.raises(ValueError):
        derive_bound(ORIG, OPT, {"a": -1, "b": 1, "c": 1})
    with pytest.raises(ValueError):
        derive_bound(ORIG, OPT, {"a": math.inf, "b": 1, "c": 1})
    with pytest.raises(TypeError):
        derive_bound(ORIG, OPT, {"a": "big", "b": 1, "c": 1})


def test_error_types_are_value_errors():
    assert issubclass(MismatchedExpressionsError, ValueError)
    assert issubclass(UnknownVariableError, ValueError)
