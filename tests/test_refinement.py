"""Refinement relations and the block equivalence verdict."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fma_tv import denotation, refinement
from fma_tv._bits import bits_of, float_from_hex
from fma_tv.cli import SamplerConfig, corpus_tuples, sample_tuple, special_values
from fma_tv.denotation import EvalError, GlobalEnv, IntrinsicError, LocalEnv, interp_cfg2
from fma_tv.error_model import Add, Fma, Mul, Var, compile_derived_bound, derive_bound
from fma_tv.fp_semantics import MAX_FINITE, MAX_SUBNORMAL, MIN_SUBNORMAL, Double, Poison, b64_fma, round_rational_up
from fma_tv.ir_core import GlobalId, LocalId, WellformednessError, parse_module
from fma_tv.refinement import (
    AlignmentError,
    AlignmentSpec,
    BoundSource,
    EquivChecker,
    Mode,
    RefinementConfig,
    Status,
    UnsupportedExprError,
    Verdict,
    check_equiv,
    double_refine,
    identity_alignment,
    load_alignment,
    local_refine,
    recover_expr,
)
from strategies import any_double, block_pairs, finite_double, function_defs
from test_error_model import loop_float_path

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"
(FMA_FN,) = parse_module((TESTDATA / "fma.ll").read_text())
(NON_FMA_FN,) = parse_module((TESTDATA / "non_fma.ll").read_text())
ALIGN = load_alignment((TESTDATA / "alignment.json").read_text())

G0 = GlobalEnv.empty()
L0 = LocalEnv.empty()
STRICT = RefinementConfig(mode=Mode.STRICT)


def anon(n):
    return LocalId.anon(n)


def dbls(*xs):
    return tuple(Double(x) for x in xs)


# ---------------------------------------------------------------------------
# double_refine


def test_double_refine_poison_cases():
    assert double_refine(Poison(), Poison(), 0.0)
    assert not double_refine(Double(1.0), Poison(), math.inf)
    assert not double_refine(Poison(), Double(1.0), math.inf)


def test_double_refine_reflexive_at_zero_bound():
    for x in (0.0, -0.0, 1.0, -2.5, 1e300, 2.0**-1074):
        assert double_refine(Double(x), Double(x), 0.0)


def test_double_refine_boundary_inclusive():
    # the comparison is <=, so a difference exactly at the bound passes
    assert double_refine(Double(1.5), Double(1.0), 0.5)
    assert not double_refine(Double(1.5), Double(1.0), 0.49)


def test_double_refine_finiteness_modes():
    cases = [
        (Double(math.inf), Double(math.inf)),  # diff is nan
        (Double(math.nan), Double(0.0)),
        (Double(1e308), Double(-1e308)),  # finite endpoints, diff overflows
    ]
    for d1, d2 in cases:
        assert double_refine(d1, d2, 1.0)
        assert not double_refine(d1, d2, 1.0, STRICT)


@given(any_double, any_double, st.floats(min_value=0.0), st.floats(min_value=0.0))
def test_double_refine_monotone_in_bound(x, y, b1, b2):
    lo, hi = min(b1, b2), max(b1, b2)
    for cfg in (RefinementConfig(), STRICT):
        if double_refine(Double(x), Double(y), lo, cfg):
            assert double_refine(Double(x), Double(y), hi, cfg)


@given(finite_double, finite_double, st.floats(min_value=0.0, allow_infinity=False))
def test_double_refine_modes_agree_when_finite(x, y, bound):
    d1, d2 = Double(x), Double(y)
    if math.isfinite(x - y):
        assert double_refine(d1, d2, bound) == double_refine(d1, d2, bound, STRICT)
    else:
        assert double_refine(d1, d2, bound)
        assert not double_refine(d1, d2, bound, STRICT)


# ---------------------------------------------------------------------------
# local_refine


def test_local_refine_aligned_pair():
    opt = LocalEnv(((anon(4), Double(1.0)),))
    orig = LocalEnv(((anon(5), Double(1.0 + 2.0**-52)), (anon(4), Double(3.0))))
    ok = local_refine(opt, orig, ALIGN, 2.0**-52)
    assert ok
    # same environments, bound too small for the pair difference
    assert not local_refine(opt, orig, ALIGN, 2.0**-54)


def test_local_refine_empty():
    assert local_refine(L0, L0, identity_alignment(), 0.0)


def test_local_refine_unaligned_difference():
    opt = LocalEnv(((anon(7), Double(1.0)),))
    orig = LocalEnv(((anon(7), Double(2.0)),))
    assert not local_refine(opt, orig, identity_alignment(), math.inf)


def test_local_refine_missing_lookup():
    opt = LocalEnv(())
    orig = LocalEnv(((anon(5), Double(1.0)),))
    assert not local_refine(opt, orig, ALIGN, math.inf)


def test_local_refine_leftover_order_matters():
    a = LocalEnv(((anon(1), Double(1.0)), (anon(2), Double(2.0))))
    b = LocalEnv(((anon(2), Double(2.0)), (anon(1), Double(1.0))))
    assert not local_refine(a, b, identity_alignment(), math.inf)
    assert local_refine(a, a, identity_alignment(), 0.0)


small_envs = st.lists(
    st.tuples(st.integers(0, 3).map(anon), finite_double.map(Double)), max_size=4
).map(lambda kv: LocalEnv(tuple(kv)))

fresh_sets = st.frozensets(st.integers(0, 3).map(anon), max_size=3)


@given(small_envs, small_envs, fresh_sets, fresh_sets)
def test_local_refine_leftover_symmetric(env_a, env_b, fo, fg):
    # no pairs: the check reduces to the leftover clause, which must be
    # symmetric under swapping the environments and the fresh-set roles
    al = AlignmentSpec((), fo, fg)
    swapped = AlignmentSpec((), fg, fo)
    assert local_refine(env_a, env_b, al, 0.0) == local_refine(env_b, env_a, swapped, 0.0)


# ---------------------------------------------------------------------------
# alignment specs


def test_alignment_pairs_must_be_fresh():
    with pytest.raises(AlignmentError):
        AlignmentSpec(((anon(4), anon(5)),), frozenset(), frozenset((anon(5),)))
    with pytest.raises(AlignmentError):
        AlignmentSpec(((anon(4), anon(5)),), frozenset((anon(4),)), frozenset())


def test_alignment_fresh_cannot_cover_params():
    ok = AlignmentSpec((), frozenset((anon(4),)), frozenset())
    ok.validate_against((anon(0), anon(1)))
    with pytest.raises(AlignmentError):
        ok.validate_against((anon(4),))


def test_load_alignment_canonical():
    assert ALIGN.pairs == ((anon(4), anon(5)),)
    assert ALIGN.fresh_optimized == frozenset((anon(4),))
    assert ALIGN.fresh_original == frozenset((anon(4), anon(5)))


def test_load_alignment_defaults_and_errors():
    assert load_alignment("{}") == identity_alignment()
    for bad in (
        "[1, 2]",
        "not json",
        '{"pears": []}',
        '{"pairs": [["%4"]]}',
        '{"pairs": "nope"}',
        '{"fresh_optimized": [4]}',
        '{"fresh_optimized": ["4"]}',
        '{"pairs": ' + "[" * 1000 + "]" * 1000 + "}",  # nested past the decoder's recursion limit
        '{"pairs": [["%4", "%5"]], "pairs": []}',  # a repeated key is refused, not merged
        '{"fresh_original": [], "fresh_original": []}',
    ):
        with pytest.raises(AlignmentError):
            load_alignment(bad)


# ---------------------------------------------------------------------------
# symbolic recovery


def test_recover_expr_canonical_pair():
    a, b, c = Var("%0"), Var("%1"), Var("%2")
    assert recover_expr(NON_FMA_FN) == Add(Mul(a, b), c)
    assert recover_expr(FMA_FN) == Fma(a, b, c)


def test_recover_expr_identity_and_consts():
    (f,) = parse_module("define double @f(double %0) { ret double %0 }")
    assert recover_expr(f) == Var("%0")
    (g,) = parse_module(
        "define double @g(double %0) {\n  %2 = fmul double %0, 2.0\n  ret double %2\n}"
    )
    assert recover_expr(g) == Mul(Var("%0"), Double(2.0))


def test_one_literal_object_from_parse_to_bound():
    exprs = []
    for lit in ("-0.0", "0.0"):
        (f,) = parse_module(
            f"define double @f(double %0) {{\n  %2 = fadd double %0, {lit}\n  ret double %2\n}}"
        )
        rhs = f.body.blk_code[0].rhs
        assert isinstance(rhs, Double)
        assert recover_expr(f) == Add(Var("%0"), rhs)
        # a literal denotes itself: the parsed object, not a fresh box
        assert denotation.eval_expr(rhs, L0) is rhs
        exprs.append(recover_expr(f))
    # the twins differ only in the sign of a zero, and stay distinct
    assert exprs[0] != exprs[1]
    mags = {"%0": 1.0}
    labels = [label for label, _ in derive_bound(*exprs, mags).terms]
    assert labels == ["original:add[0]", "optimized:add[0]", "comparison"]
    assert [label for label, _ in derive_bound(exprs[0], exprs[0], mags).terms] == ["comparison"]


def test_recover_expr_shared_subexpression():
    (f,) = parse_module(
        "define double @f(double %0) {\n"
        "  %2 = fmul double %0, %0\n"
        "  %3 = fadd double %2, %2\n"
        "  ret double %3\n"
        "}"
    )
    sq = Mul(Var("%0"), Var("%0"))
    assert recover_expr(f) == Add(sq, sq)


def test_recover_expr_unsupported():
    (f,) = parse_module(
        "define double @f(double %0) {\n  %2 = fsub double %0, %0\n  ret double %2\n}"
    )
    with pytest.raises(UnsupportedExprError):
        recover_expr(f)
    (g,) = parse_module(
        "define double @g(double %0) {\n"
        "  %2 = call double @llvm.sqrt.f64(double %0)\n"
        "  ret double %2\n"
        "}"
    )
    with pytest.raises(UnsupportedExprError):
        recover_expr(g)
    # a non-finite literal has no magnitude to propagate
    for literal in ("0x7FF0000000000000", "0x7FF8000000000000"):
        (h,) = parse_module(
            f"define double @h(double %0) {{\n  %2 = fadd double %0, {literal}\n  ret double %2\n}}"
        )
        with pytest.raises(UnsupportedExprError, match="non-finite literal"):
            recover_expr(h)


def test_squaring_chain_bound_compiles_past_the_decimal_digit_limit():
    """Five squarings give exact-path coefficients of over 4,300 decimal digits, more than `int` will print."""
    squares = [f"  %s{i} = fmul double {x}, {x}\n" for i, x in enumerate(("%0", "%s0", "%s1", "%s2", "%s3"))]
    head, ret = "define double @f(double %0, double %1) {\n", "  ret double %r\n}"
    (orig,) = parse_module(head + "".join(squares) + "  %r = fadd double %s4, %1\n" + ret)
    fma = "  %r = call double @llvm.fmuladd.f64(double %s3, double %s3, double %1)\n"
    (opt,) = parse_module(head + "".join(squares[:4]) + fma + ret)
    align = load_alignment('{"pairs": [["%r", "%r"]], "fresh_optimized": ["%r"], "fresh_original": ["%s4", "%r"]}')
    v = EquivChecker(orig, opt, align).check((1.5, -3.0))
    assert v.status is Status.PASS and v.bound_derived is not None
    exprs = recover_expr(orig), recover_expr(opt)
    bound = compile_derived_bound(*exprs, ("%0", "%1"))
    for ms in ((1.5, 3.0), (0.0, MIN_SUBNORMAL), (2.0**30, 1.0), (MAX_FINITE, 0.0)):
        exact = derive_bound(*exprs, {"%0": ms[0], "%1": ms[1]}).magnitude_bound
        assert bits_of(bound._eval_exact(ms)) == bits_of(round_rational_up(exact))


# ---------------------------------------------------------------------------
# check_equiv on the canonical pair


def test_check_equiv_canonical_pass():
    v = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, dbls(1.0, 1.0, 0.0), ALIGN)
    assert v.status is Status.PASS
    assert v.observed_diff == 0.0
    assert v.bound_source_used == "derived"
    assert v.audited and not v.paper_disagrees
    assert v.bound_derived is not None and v.bound_paper is not None


def test_check_equiv_fsub_mutant_fails():
    fsub_text = (TESTDATA / "non_fma.ll").read_text().replace("fadd", "fsub")
    (mutant,) = parse_module(fsub_text)
    v = check_equiv(FMA_FN, mutant, G0, L0, dbls(1.0, 1.0, 1.0), ALIGN)
    assert v.status is Status.FAIL
    assert v.failed_clause == "locals"
    assert v.failed_ids == ("%4~%5",)
    assert v.observed_diff == 2.0
    # fsub has no expression-level counterpart, so the derived bound is
    # unavailable and the published three-parameter formula takes over
    assert v.bound_source_used == "paper"
    assert v.bound_derived is None
    assert not v.audited


def test_check_equiv_poison_pass():
    v = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, (Double(1.0), Poison(), Double(2.0)), ALIGN)
    assert v.status is Status.PASS
    assert v.poison_result
    assert v.observed_diff is None


@given(st.lists(st.booleans(), min_size=3, max_size=3).filter(any), st.data())
def test_check_equiv_poison_compatibility(poison_at, data):
    args = tuple(
        Poison() if p else Double(data.draw(finite_double)) for p in poison_at
    )
    v = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, args, ALIGN)
    assert v.status is Status.PASS
    assert v.poison_result


def test_check_equiv_strict_lenient_divergence():
    args = dbls(1e200, 1e200, 0.0)
    lenient = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, args, ALIGN)
    strict = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, args, ALIGN, STRICT)
    assert lenient.status is Status.PASS and lenient.vacuous
    assert strict.status is Status.FAIL
    assert strict.failed_clause == "locals"


def test_check_equiv_preserves_nonempty_globals():
    g = GlobalEnv(entries=((GlobalId("gv"), Double(7.0)),))
    v = check_equiv(FMA_FN, NON_FMA_FN, g, L0, dbls(1.0, 2.0, 3.0), ALIGN)
    assert v.status is Status.PASS


# ---------------------------------------------------------------------------
# unsupported inputs and ill-posed requests


def test_check_equiv_renamed_intrinsic_unsupported():
    text = (TESTDATA / "fma.ll").read_text().replace("fmuladd.f64", "fmuladd.f32")
    (renamed,) = parse_module(text)
    v = check_equiv(renamed, NON_FMA_FN, G0, L0, dbls(1.0, 1.0, 0.0), ALIGN)
    assert v.status is Status.UNSUPPORTED
    assert v.message == "optimized: unsupported call to @llvm.fmuladd.f32"


def test_check_equiv_flags_unsupported():
    text = (TESTDATA / "non_fma.ll").read_text().replace("fadd double", "fadd fast double")
    (flagged,) = parse_module(text)
    v = check_equiv(FMA_FN, flagged, G0, L0, dbls(1.0, 1.0, 0.0), ALIGN)
    assert v.status is Status.UNSUPPORTED
    assert "fast-math flags" in v.message


def test_check_equiv_param_mismatch_raises():
    (two,) = parse_module(
        "define double @f(double %0, double %1) {\n"
        "  %3 = fadd double %0, %1\n  ret double %3\n}"
    )
    with pytest.raises(ValueError):
        check_equiv(FMA_FN, two, G0, L0, dbls(1.0, 1.0), ALIGN)


def test_check_equiv_permuted_alignment_fails():
    perm = load_alignment(
        '{"pairs":[["%5","%4"]],"fresh_optimized":["%4","%5"],"fresh_original":["%4","%5"]}'
    )
    v = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, dbls(1.0, 1.0, 0.0), perm)
    assert v.status is Status.FAIL
    assert v.failed_clause == "locals"
    assert v.failed_ids == ("%5~%4",)


def test_bound_source_gating():
    # the published formula is arity-specific
    (two,) = parse_module(
        "define double @f(double %0, double %1) {\n"
        "  %3 = fadd double %0, %1\n  ret double %3\n}"
    )
    cfg = RefinementConfig(bound_source=BoundSource.PAPER_FORMULA)
    v = check_equiv(two, two, G0, L0, dbls(1.0, 2.0), identity_alignment(), cfg)
    assert v.status is Status.UNSUPPORTED
    assert v.message == "published bound needs exactly three double parameters"

    # the derived bound needs both blocks inside the expression language
    fsub_text = (TESTDATA / "non_fma.ll").read_text().replace("fadd", "fsub")
    (mutant,) = parse_module(fsub_text)
    cfg = RefinementConfig(bound_source=BoundSource.DERIVED)
    v = check_equiv(FMA_FN, mutant, G0, L0, dbls(1.0, 1.0, 1.0), ALIGN, cfg)
    assert v.status is Status.UNSUPPORTED
    assert v.message == "derived bound unavailable: no error model for fsub"


def test_checker_static_validation_is_input_independent():
    text = (TESTDATA / "fma.ll").read_text().replace("fmuladd.f64", "fmuladd.f32")
    (renamed,) = parse_module(text)
    checker = EquivChecker(NON_FMA_FN, renamed, ALIGN)
    assert checker.static_unsupported is not None
    for args in (dbls(1.0, 1.0, 0.0), (Poison(), Poison(), Poison())):
        assert checker.check(args).status is Status.UNSUPPORTED


@pytest.mark.parametrize("first", [1, True], ids=repr)
def test_non_double_argument_read_by_fmuladd_raises(first):
    """A supported pair gives no per-sample unsupported verdict: an `int` or `bool` raises the interpreter's error."""
    checker = EquivChecker(FMA_FN, FMA_FN, identity_alignment())
    assert checker.static_unsupported is None
    for check in (checker.check, checker.check_reference):
        with pytest.raises(IntrinsicError):
            check((first, 2.0, 3.0))


# ---------------------------------------------------------------------------
# invariants


@settings(max_examples=200)
@given(function_defs(), st.data())
def test_check_equiv_reflexive(f, data):
    args = tuple(Double(data.draw(finite_double)) for _ in f.params)
    v = check_equiv(f, f, G0, L0, args, identity_alignment())
    assert v.status is Status.PASS
    if v.observed_diff is not None and not v.vacuous:
        assert v.observed_diff == 0.0


@settings(max_examples=300)
@given(st.tuples(*([finite_double] * 3)))
def test_canonical_pair_sound_under_derived_bound(xs):
    # dual route: the sampling verdict agrees with an exact recomputation
    args = dbls(*xs)
    cfg = RefinementConfig(bound_source=BoundSource.DERIVED)
    v = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, args, ALIGN, cfg)
    assert v.status is Status.PASS

    ms_orig, _ = interp_cfg2(NON_FMA_FN, G0, L0, args)
    ms_opt, _ = interp_cfg2(FMA_FN, G0, L0, args)
    r1, r2 = ms_orig.result.v, ms_opt.result.v
    if all(map(math.isfinite, (r1, r2, *xs))) and not v.vacuous:
        exact = derive_bound(
            recover_expr(NON_FMA_FN),
            recover_expr(FMA_FN),
            {f"%{i}": abs(x) for i, x in enumerate(xs)},
        ).magnitude_bound
        assert abs(Fraction(r1) - Fraction(r2)) <= exact
        # the checker's compiled bound never undercuts the exact one
        assert Fraction(v.bound_used) >= exact


def test_verdict_json_shape():
    v = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, dbls(1.0, 1.0, 0.0), ALIGN)
    doc = v.to_json()
    assert doc["status"] == "pass"
    assert doc["args"][0] == {"decimal": "1.0", "hex": "0x3FF0000000000000"}
    assert doc["observed_diff"] == {"decimal": "0.0", "hex": "0x0000000000000000"}
    assert list(doc) == list(Verdict(Status.PASS).to_json())
    pv = check_equiv(
        FMA_FN, NON_FMA_FN, G0, L0, (Poison(), Double(1.0), Double(2.0)), ALIGN
    )
    assert pv.to_json()["args"][0] == "poison"


# ---------------------------------------------------------------------------
# the compiled check against the interpreter


FSUB_FN = parse_module((TESTDATA / "non_fma.ll").read_text().replace("fadd", "fsub"))[0]
PERMUTED = load_alignment(
    '{"pairs":[["%5","%4"]],"fresh_optimized":["%4","%5"],"fresh_original":["%4","%5"]}'
)
# (optimized, original, alignment): the canonical pair, the fsub mutant, the permuted alignment
CANONICAL_CASES = (
    (FMA_FN, NON_FMA_FN, ALIGN),
    (FMA_FN, FSUB_FN, ALIGN),
    (FMA_FN, NON_FMA_FN, PERMUTED),
)
CONFIGS = tuple(
    RefinementConfig(mode=m, bound_source=b) for m in Mode for b in BoundSource
)


def assert_compiled_matches_reference(checker, xs):
    """check on the floats `xs` gives check_reference's verdict on them and on their Doubles."""
    want = checker.check_reference(xs).to_json()
    assert checker.check(xs).to_json() == want == checker.check_reference(dbls(*xs)).to_json()


@settings(max_examples=300)
@given(
    st.sampled_from(CANONICAL_CASES),
    st.sampled_from(CONFIGS),
    st.tuples(any_double, any_double, any_double),
)
def test_compiled_check_matches_reference_canonical(case, cfg, xs):
    opt, orig, align = case
    checker = EquivChecker(orig, opt, align, cfg)
    assert (checker.compiled is None) == (checker.static_unsupported is not None)
    assert_compiled_matches_reference(checker, xs)


def test_compiled_check_matches_reference_on_special_values():
    specials = (0.0, -0.0, MIN_SUBNORMAL, -MIN_SUBNORMAL, 1.0, math.inf, -math.inf, math.nan)
    checkers = [
        EquivChecker(orig, opt, align, cfg)
        for opt, orig, align in CANONICAL_CASES
        for cfg in (STRICT, RefinementConfig())
    ]
    for xs in itertools.product(specials, repeat=3):
        for checker in checkers:
            assert_compiled_matches_reference(checker, xs)


@settings(max_examples=300)
@given(block_pairs(), st.sampled_from(CONFIGS), st.data())
def test_compiled_check_matches_reference_random_pairs(pair, cfg, data):
    opt, orig, align = pair
    checker = EquivChecker(orig, opt, align, cfg)
    assert (checker.compiled is None) == (checker.static_unsupported is not None)
    assert_compiled_matches_reference(checker, tuple(data.draw(any_double) for _ in opt.params))


class SubFloat(float):
    pass


def outcome(f, args):
    """f(args) as a comparable value: the verdict, or the type and text of what it raised."""
    try:
        return f(args)
    except Exception as e:  # the reference path's own error for an input it cannot denote
        return type(e), str(e)


@pytest.mark.parametrize("args", [
    (1, 2.0, 3.0), (1.0, 2.0, 3), (True, 2.0, 3.0), (1.0, False, 3.0),
    (SubFloat(1.5), 2.0, 3.0), (1.5, 2.0, SubFloat(-3.0)), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (),
    (Double(1.5), 2.0, 3.0), (1.5, Poison(), 3.0),
], ids=repr)
def test_check_routes_all_but_floats_to_the_reference(args, monkeypatch):
    runs = []
    monkeypatch.setattr(refinement, "interp_cfg2", lambda *a: runs.append(a) or interp_cfg2(*a))
    for opt, orig, align in CANONICAL_CASES:
        checker = EquivChecker(orig, opt, align)
        assert checker.compiled is not None
        runs.clear()
        got = outcome(checker.check, args)
        assert runs, "check denoted nothing: the tuple took the generated path"
        assert got == outcome(checker.check_reference, args)
        # the same values as floats take the generated path, which leaves all but a pass to the reference
        runs.clear()
        passed = checker.check((1.5, 2.0, 3.0)).status is Status.PASS
        assert passed == (runs == [])
        if orig is NON_FMA_FN and align is ALIGN:
            assert passed


@given(block_pairs())
def test_supported_means_generated(pair):
    opt, orig, align = pair
    for cfg in CONFIGS:
        checker = EquivChecker(orig, opt, align, cfg)
        assert (checker.compiled is None) == (checker.static_unsupported is not None), cfg


# the early exit: `check(xs, True)` returns None exactly on a pass whose compared differences are all 0.0


def compared_diffs(checker, xs):
    """By the interpreter: |optimized - original| of each aligned pair, then of the returns; None if one is missing."""
    values = dbls(*xs)
    ms_orig, _ = interp_cfg2(checker.original, G0, L0, values)
    ms_opt, _ = interp_cfg2(checker.optimized, G0, L0, values)
    pairs = [(ms_opt.locals.lookup(o), ms_orig.locals.lookup(g)) for o, g in checker.alignment.pairs]
    return [None if x is None or y is None else abs(x.v - y.v) for x, y in (*pairs, (ms_opt.result, ms_orig.result))]


# random pairs mostly fail; a block against itself and the canonical pair mostly pass, often all-zero;
# under the empty alignment the canonical pair fails the leftover clause even where its returns agree
EARLY_EXIT_PAIRS = st.one_of(
    block_pairs(),
    function_defs().map(lambda f: (f, f, AlignmentSpec())),
    st.sampled_from([(FMA_FN, NON_FMA_FN, ALIGN), (FMA_FN, NON_FMA_FN, AlignmentSpec())]),
)


@settings(max_examples=300)
@given(EARLY_EXIT_PAIRS, st.sampled_from(CONFIGS), st.data())
def test_early_exit_fires_exactly_on_an_all_zero_pass(pair, cfg, data):
    opt, orig, align = pair
    checker = EquivChecker(orig, opt, align, cfg)
    xs = tuple(data.draw(st.one_of(st.sampled_from(special_values()), any_double)) for _ in opt.params)
    full = checker.check(xs)
    assert full is not None
    lazy = checker.check(xs, True)
    all_zero = full.status is Status.PASS and all(d == 0.0 for d in compared_diffs(checker, xs))
    assert (lazy is None) == all_zero
    if lazy is not None:
        assert lazy.to_json() == full.to_json()


def ir_block(body: str, n_params: int = 3):
    params = ", ".join(f"double %{i}" for i in range(n_params))
    (f,) = parse_module(f"define double @f({params}) {{\n{body}}}\n")
    return f


# the pair c*(a+a) against (a+a)*c, whose derived bound has a subnormal coefficient
TINY_ORIG = ir_block("  %3 = fadd double %0, %0\n  %4 = fmul double %2, %3\n  ret double %4\n")
TINY_OPT = ir_block("  %3 = fadd double %0, %0\n  %4 = fmul double %3, %2\n  ret double %4\n")


@pytest.mark.parametrize(
    "opt, orig, align",
    [(FMA_FN, NON_FMA_FN, ALIGN), (TINY_OPT, TINY_ORIG, identity_alignment())],
    ids=["canonical", "subnormal-coefficient"],
)
def test_generated_bounds_route_like_the_compiled_bounds(opt, orig, align):
    """Each bound goes exact past its own limit, with the bits `CompiledBound` gives."""
    checker = EquivChecker(orig, opt, align)
    derived, paper = checker._derived_eval, checker._paper_eval
    edges = [0.0, MIN_SUBNORMAL, 1.0, 1e120, MAX_FINITE, math.inf, math.nan]
    for limit in (derived._mag_limit, paper._mag_limit):
        edges += [math.nextafter(limit, 0.0), limit, math.nextafter(limit, math.inf)]
    if opt is FMA_FN:  # 1e120 lies between the two limits
        assert paper._mag_limit < 1e120 < derived._mag_limit
    for xs in itertools.product(edges, repeat=3):
        mags = tuple(map(abs, xs))
        d = checker.check(xs)
        for got, bound in ((d.bound_derived, derived), (d.bound_paper, paper)):
            assert bits_of(got) == bits_of(bound(mags)), xs
            within = all(m <= bound._mag_limit for m in mags)
            want = loop_float_path(bound, mags) if within else bound._eval_exact(mags)
            assert bits_of(got) == bits_of(want), xs


EDGE_CASES = {
    # no parameters: every operand a literal; returns within the bound, then not
    "no parameters": (
        ir_block("  %0 = fmul double 1.5, -0.0\n  ret double %0\n", 0),
        ir_block("  %0 = fadd double 0x0000000000000001, -0.0\n  ret double %0\n", 0),
        load_alignment('{"fresh_optimized": ["%0"], "fresh_original": ["%0"]}'),
    ),
    "no parameters, failing": (
        ir_block("  %0 = fadd double 1.0, 1.0\n  ret double %0\n", 0),
        ir_block("  %0 = fmul double 1.0, 3.0\n  ret double %0\n", 0),
        load_alignment('{"fresh_optimized": ["%0"], "fresh_original": ["%0"]}'),
    ),
    # literal operands: -0.0, the least subnormal and 1e308
    "literals": (
        ir_block("  %4 = tail call double @llvm.fmuladd.f64(double %0, double 1.0e308, double -0.0)\n"
                 "  %5 = fmul double %4, 0x0000000000000001\n  ret double %5\n"),
        ir_block("  %4 = fmul double %0, 1.0e308\n  %5 = fadd double %4, -0.0\n"
                 "  %6 = fmul double %5, 0x0000000000000001\n  ret double %6\n"),
        load_alignment('{"fresh_optimized": ["%4", "%5"], "fresh_original": ["%4", "%5", "%6"]}'),
    ),
    # an aligned id the original never binds
    "unbound pair": (
        FMA_FN,
        NON_FMA_FN,
        load_alignment('{"pairs": [["%4", "%9"]], "fresh_optimized": ["%4"], '
                       '"fresh_original": ["%4", "%5", "%9"]}'),
    ),
    # leftover id sequences differ: the leftover clause fails on every input
    "leftover None": (FMA_FN, NON_FMA_FN, identity_alignment()),
    # leftover slots compared bit for bit, %3 differing on most inputs
    "leftover non-empty": (
        ir_block("  %3 = fsub double %0, %1\n  %4 = fmul double %2, %1\n  ret double %4\n"),
        ir_block("  %3 = fadd double %0, %1\n  %4 = fmul double %2, %1\n  ret double %4\n"),
        identity_alignment(),
    ),
    "leftover non-empty, passing": (TINY_OPT, TINY_ORIG, identity_alignment()),
    # -0.0 literal operands and a literal NaN return with a payload: no derived bound
    "-0.0 literals, NaN return": (
        ir_block("  %3 = fmul double %0, 2.0\n"
                 "  %4 = call double @llvm.fmuladd.f64(double %3, double -0.0, double %1)\n"
                 "  ret double 0x7FF8000000000001\n"),
        ir_block("  %3 = fmul double %0, 2.0\n  %4 = fmul double %3, -0.0\n  %5 = fadd double %4, %1\n"
                 "  ret double 0x7FF8000000000001\n"),
        load_alignment('{"pairs": [["%4", "%5"]], "fresh_optimized": ["%4"], "fresh_original": ["%4", "%5"]}'),
    ),
    # named locals that are not Python identifiers, paired and compared as leftovers
    "named locals": (
        parse_module("define double @f(double %x.1, double %a-b, double %$t) {\n"
                     "  %s-1 = fmul double %$t, %x.1\n"
                     "  %r = call double @llvm.fmuladd.f64(double %x.1, double %a-b, double %$t)\n"
                     "  ret double %r\n}\n")[0],
        parse_module("define double @f(double %x.1, double %a-b, double %$t) {\n"
                     "  %s-1 = fmul double %$t, %x.1\n  %m.0 = fmul double %x.1, %a-b\n"
                     "  %r = fadd double %m.0, %$t\n  ret double %r\n}\n")[0],
        load_alignment('{"pairs": [["%r", "%r"]], "fresh_optimized": ["%r"], "fresh_original": ["%m.0", "%r"]}'),
    ),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_generated_check_edge_cases_match_reference(name):
    opt, orig, align = EDGE_CASES[name]
    values = (0.0, -0.0, MIN_SUBNORMAL, 1.5, -3.0, 1e200, math.inf, math.nan)
    for cfg in CONFIGS:
        checker = EquivChecker(orig, opt, align, cfg)
        if checker.static_unsupported is not None:  # one bound was asked for and is missing
            assert cfg.bound_source is not BoundSource.BOTH
            continue
        assert checker.compiled is not None
        for xs in itertools.product(values, repeat=len(orig.params)):
            assert_compiled_matches_reference(checker, xs)


def test_generated_check_observes_the_canonical_witness():
    """The product's 2**-54 that the unfused pair rounds away and the fma keeps."""
    witness = (1.0 + 2.0**-27, 1.0 + 2.0**-27, -(1.0 + 2.0**-26))
    checker = EquivChecker(NON_FMA_FN, FMA_FN, ALIGN)
    assert checker.compiled is not None
    assert checker.check(witness).observed_diff == 2.0**-54
    assert_compiled_matches_reference(checker, witness)


def test_no_generated_check_where_the_interpreter_rejects():
    """Flags and foreign calls are unsupported, undefined locals raise; neither gets `compiled`."""
    for text, raises in (
        ((TESTDATA / "non_fma.ll").read_text().replace("fadd double", "fadd fast double"), False),
        ((TESTDATA / "fma.ll").read_text().replace("fmuladd.f64", "fmuladd.f32"), False),
        ("define double @f(double %0) {\n  ret double %7\n}", True),
        ("define double @f(double %0) {\n  %2 = fadd double %0, %5\n  ret double %2\n}", True),
    ):
        (f,) = parse_module(text)
        ones = (1.0,) * len(f.params)
        with pytest.raises(EvalError):
            interp_cfg2(f, G0, L0, dbls(*ones))
        if raises:
            with pytest.raises(WellformednessError):
                EquivChecker(f, f, identity_alignment())
            continue
        checker = EquivChecker(f, f, identity_alignment())
        assert checker.compiled is None
        assert checker.check(ones).status is Status.UNSUPPORTED


@st.composite
def checked_inputs(draw):
    """A pair from block_pairs plus arguments for it, each a double or poison."""
    opt, orig, align = draw(block_pairs())
    value = st.one_of(st.just(Poison()), any_double.map(Double))
    return opt, orig, align, tuple(draw(value) for _ in opt.params)


# the return is within the derived bound but not the published one, and the
# empty alignment fails the leftover clause: both bounds give the same FAIL
AUDIT_SAME_FAIL = (
    FMA_FN,
    NON_FMA_FN,
    load_alignment("{}"),
    dbls(*map(float_from_hex, ("0xBF4076EF37EB9BFB", "0x3F9F28FA1654012D", "0x3F27E0C34FD27DC0"))),
)


@settings(max_examples=300)
@given(checked_inputs(), st.sampled_from(CONFIGS))
@example(AUDIT_SAME_FAIL, RefinementConfig())
def test_checker_verdicts_follow_the_public_relation(case, cfg):
    """check agrees with double_refine/local_refine under each bound it reports."""
    opt, orig, align, args = case
    v = EquivChecker(orig, opt, align, cfg).check(args)
    if v.status is Status.UNSUPPORTED:
        return
    ms_orig, _ = interp_cfg2(orig, G0, L0, args)
    ms_opt, _ = interp_cfg2(opt, G0, L0, args)

    def holds(bound):
        return local_refine(ms_opt.locals, ms_orig.locals, align, bound, cfg) and double_refine(
            ms_opt.result, ms_orig.result, bound, cfg
        )

    def rejected(opt_id, orig_id):
        x, y = ms_opt.locals.lookup(opt_id), ms_orig.locals.lookup(orig_id)
        return x is None or y is None or not double_refine(x, y, v.bound_used, cfg)

    assert (v.status is Status.PASS) == holds(v.bound_used)
    assert v.failed_ids == tuple(f"{o}~{g}" for o, g in align.pairs if rejected(o, g))
    assert v.paper_disagrees == (v.audited and holds(v.bound_derived) != holds(v.bound_paper))


@given(st.lists(st.booleans(), min_size=3, max_size=3).filter(any), st.data())
def test_check_poison_takes_the_reference_path(poison_at, data):
    args = tuple(Poison() if p else Double(data.draw(any_double)) for p in poison_at)
    checker = EquivChecker(NON_FMA_FN, FMA_FN, ALIGN)
    assert checker.compiled is not None
    assert checker.check(args).to_json() == checker.check_reference(args).to_json()
    assert checker.check(args).poison_result


def test_check_equiv_from_populated_environments():
    g = GlobalEnv(entries=((GlobalId("gv"), Double(7.0)),))
    l = LocalEnv.empty().bind(LocalId("keep"), Double(5.0))
    args = dbls(1.0, 2.0, 3.0)
    empty = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, args, ALIGN).to_json()
    assert empty["status"] == "pass"
    for genv, lenv in ((g, L0), (G0, l), (g, l)):
        assert check_equiv(FMA_FN, NON_FMA_FN, genv, lenv, args, ALIGN).to_json() == empty
    # the same verdict as the generated check on the bare floats
    assert EquivChecker(NON_FMA_FN, FMA_FN, ALIGN).compiled((1.0, 2.0, 3.0)).to_json() == empty


def test_check_arity_mismatch_still_raises():
    checker = EquivChecker(NON_FMA_FN, FMA_FN, ALIGN)
    with pytest.raises(ValueError):
        checker.check(dbls(1.0, 2.0))


# ---------------------------------------------------------------------------
# raw floats, values and the reference


def dot_blocks(terms: int = 8):
    """The dot product summed left to right against its fmuladd chain, returns paired."""
    n = 2 * terms
    orig, opt = [f"  %{n + 1} = fmul double %0, %1\n"], [f"  %{n + 1} = fmul double %0, %1\n"]
    acc = acc_opt = n + 1
    for i in range(1, terms):
        orig.append(f"  %{acc + 1} = fmul double %{2 * i}, %{2 * i + 1}\n")
        orig.append(f"  %{acc + 2} = fadd double %{acc}, %{acc + 1}\n")
        opt.append(f"  %{acc_opt + 1} = tail call double @llvm.fmuladd.f64("
                   f"double %{2 * i}, double %{2 * i + 1}, double %{acc_opt})\n")
        acc, acc_opt = acc + 2, acc_opt + 1
    align = AlignmentSpec(
        ((anon(acc_opt), anon(acc)),),
        frozenset(anon(k) for k in range(n + 1, acc_opt + 1)),
        frozenset(anon(k) for k in range(n + 1, acc + 1)),
    )
    return (ir_block("".join(opt) + f"  ret double %{acc_opt}\n", n),
            ir_block("".join(orig) + f"  ret double %{acc}\n", n), align)


DOT_CASE = dot_blocks()
ROUTE_CONFIGS = (
    RefinementConfig(),
    STRICT,
    RefinementConfig(bound_source=BoundSource.PAPER_FORMULA),
)
ROUTE_CHECKERS = [
    EquivChecker(orig, opt, align, cfg)
    for opt, orig, align in ((FMA_FN, NON_FMA_FN, ALIGN), DOT_CASE)
    for cfg in ROUTE_CONFIGS
]
EDGES = (0.0, -0.0, MIN_SUBNORMAL, -MIN_SUBNORMAL, MAX_SUBNORMAL, MAX_FINITE, -MAX_FINITE,
         math.inf, -math.inf, math.nan)


def assert_routes_agree(checker, xs):
    """check on floats, check on Doubles and check_reference on Doubles give one verdict."""
    values = dbls(*xs)
    want = checker.check_reference(values).to_json()
    v, v_values = checker.check(xs), checker.check(values)
    assert v.args is xs and v_values.args is values
    assert v.to_json() == v_values.to_json() == want


def test_float_and_value_routes_match_reference_on_edges():
    canonical = [c for c in ROUTE_CHECKERS if len(c.params) == 3]
    for xs in itertools.product(EDGES, repeat=3):
        for checker in canonical:
            assert_routes_agree(checker, xs)
    dot = [c for c in ROUTE_CHECKERS if len(c.params) == 16]
    # the paper bound is unsupported on the dot pair, the others are compiled
    assert [c.compiled is None for c in dot] == [False, False, True]
    for k, e in enumerate(EDGES):
        for xs in ((e,) * 16, tuple(EDGES[(k + j) % len(EDGES)] for j in range(16))):
            for checker in dot:
                assert_routes_agree(checker, xs)


@settings(max_examples=200)
@given(st.sampled_from(ROUTE_CHECKERS), st.data())
def test_float_and_value_routes_match_reference(checker, data):
    value = st.one_of(st.sampled_from(EDGES), any_double)
    assert_routes_agree(checker, tuple(data.draw(value) for _ in checker.params))


@pytest.mark.parametrize("checker", ROUTE_CHECKERS, ids=[
    f"{pair}-{cfg}" for pair in ("canonical", "dot8") for cfg in ("default", "strict", "paper")])
def test_poison_and_mixed_tuples_take_the_reference_path(checker):
    n = len(checker.params)
    xs = tuple(1.5 * k - 4.0 for k in range(n))
    mixed = (Double(xs[0]), *xs[1:])
    for args in (mixed, (*xs[:-1], Poison()), (*dbls(*xs[:-1]), Poison())):
        v = checker.check(args)
        assert v.args is args
        boxed = tuple(Double(a) if isinstance(a, float) else a for a in args)
        assert v.to_json() == checker.check_reference(boxed).to_json()
    assert checker.check(mixed).to_json() == checker.check(xs).to_json()
    for bad in (xs[:-1], xs + (1.0,)):
        for args in (bad, dbls(*bad)):
            if checker.static_unsupported is not None:
                assert checker.check(args).status is Status.UNSUPPORTED
                continue
            with pytest.raises(ValueError):
                checker.check(args)


# ---------------------------------------------------------------------------
# the fma inlined in the generated check

# the special corpus, the infinities and each guard of the fma's transform with its neighbours
FMA_LIMITS = (*special_values(), math.inf, -math.inf, *(
    s * x for g in (2.0**995, 2.0**-968, 2.0**1021)
    for x in (math.nextafter(g, 0.0), g, math.nextafter(g, math.inf)) for s in (1.0, -1.0)))


@pytest.mark.parametrize("case", [(FMA_FN, NON_FMA_FN, ALIGN), DOT_CASE], ids=["canonical", "dot8"])
def test_generated_check_matches_reference_on_every_fma_route(case):
    opt, orig, align = case
    checker = EquivChecker(orig, opt, align)
    n = len(checker.params)
    rng = random.Random(n)
    full = SamplerConfig(exp_min=-1074, exp_max=1023)
    inputs = [
        *corpus_tuples(n),
        *(sample_tuple(rng, n, full) for _ in range(20_000)),
        *(tuple(rng.choice(FMA_LIMITS) for _ in range(n)) for _ in range(20_000)),
    ]
    mismatches = [xs for xs in inputs if checker.check(xs).to_json() != checker.check_reference(xs).to_json()]
    assert mismatches[:3] == []


def test_generated_check_calls_a_wrapped_fma_only_off_the_inline_routes(monkeypatch):
    """The fmuladd is inlined by instruction, so a wrapper installed before construction sees only exact-route calls."""
    calls = []

    def wrapped(a, b, c):
        calls.append((a, b, c))
        return b64_fma(a, b, c)

    monkeypatch.setattr(denotation, "b64_fma", wrapped)
    checker = EquivChecker(NON_FMA_FN, FMA_FN, ALIGN)
    # the transform, a zero factor, a zero addend
    for xs in ((1.5, 2.5, 3.5), (-0.0, 2.5, 3.5), (MIN_SUBNORMAL, MIN_SUBNORMAL, -0.0)):
        assert checker.check(xs).status is Status.PASS
    assert calls == []
    xs = (MIN_SUBNORMAL, MIN_SUBNORMAL, 1.0)  # a product under the transform's guard
    assert checker.check(xs).status is Status.PASS
    assert calls == [xs]
