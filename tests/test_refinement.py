"""Refinement relations and the block equivalence verdict."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fma_tv._bits import float_from_hex
from fma_tv.denotation import GlobalEnv, LocalEnv, interp_cfg2
from fma_tv.error_model import Add, Const, Fma, Mul, Var, derive_bound
from fma_tv.fp_semantics import MIN_SUBNORMAL, Double, Poison, to_rational
from fma_tv.ir_core import GlobalId, LocalId, parse_module
from fma_tv.refinement import (
    AlignmentError,
    AlignmentSpec,
    BoundSource,
    EquivChecker,
    Mode,
    RefinementConfig,
    Status,
    UnsupportedExprError,
    VerdictDetail,
    check_equiv,
    double_refine,
    identity_alignment,
    load_alignment,
    local_refine,
    recover_expr,
)
from strategies import any_double, finite_double, function_defs

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
    assert recover_expr(g) == Mul(Var("%0"), Const(2.0))


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


# ---------------------------------------------------------------------------
# check_equiv on the canonical pair


def test_check_equiv_canonical_pass():
    v = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, dbls(1.0, 1.0, 0.0), ALIGN)
    assert v.status is Status.PASS
    assert v.detail.observed_diff == 0.0
    assert v.detail.bound_source_used == "derived"
    assert v.detail.audited and not v.detail.paper_disagrees
    assert v.detail.bound_derived is not None and v.detail.bound_paper is not None


def test_check_equiv_fsub_mutant_fails():
    fsub_text = (TESTDATA / "non_fma.ll").read_text().replace("fadd", "fsub")
    (mutant,) = parse_module(fsub_text)
    v = check_equiv(FMA_FN, mutant, G0, L0, dbls(1.0, 1.0, 1.0), ALIGN)
    assert v.status is Status.FAIL
    assert v.detail.failed_clause == "locals"
    assert v.detail.failed_ids == ("%4~%5",)
    assert v.detail.observed_diff == 2.0
    # fsub has no expression-level counterpart, so the derived bound is
    # unavailable and the published three-parameter formula takes over
    assert v.detail.bound_source_used == "paper"
    assert v.detail.bound_derived is None
    assert not v.detail.audited


def test_check_equiv_poison_pass():
    v = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, (Double(1.0), Poison(), Double(2.0)), ALIGN)
    assert v.status is Status.PASS
    assert v.detail.poison_result
    assert v.detail.observed_diff is None


@given(st.lists(st.booleans(), min_size=3, max_size=3).filter(any), st.data())
def test_check_equiv_poison_compatibility(poison_at, data):
    args = tuple(
        Poison() if p else Double(data.draw(finite_double)) for p in poison_at
    )
    v = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, args, ALIGN)
    assert v.status is Status.PASS
    assert v.detail.poison_result


def test_check_equiv_strict_lenient_divergence():
    args = dbls(1e200, 1e200, 0.0)
    lenient = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, args, ALIGN)
    strict = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, args, ALIGN, STRICT)
    assert lenient.status is Status.PASS and lenient.detail.vacuous
    assert strict.status is Status.FAIL
    assert strict.detail.failed_clause == "locals"


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
    assert v.detail.message == "optimized: unsupported call to @llvm.fmuladd.f32"


def test_check_equiv_flags_unsupported():
    text = (TESTDATA / "non_fma.ll").read_text().replace("fadd double", "fadd fast double")
    (flagged,) = parse_module(text)
    v = check_equiv(FMA_FN, flagged, G0, L0, dbls(1.0, 1.0, 0.0), ALIGN)
    assert v.status is Status.UNSUPPORTED
    assert "fast-math flags" in v.detail.message


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
    assert v.detail.failed_clause == "locals"
    assert v.detail.failed_ids == ("%5~%4",)


def test_bound_source_gating():
    # the published formula is arity-specific
    (two,) = parse_module(
        "define double @f(double %0, double %1) {\n"
        "  %3 = fadd double %0, %1\n  ret double %3\n}"
    )
    cfg = RefinementConfig(bound_source=BoundSource.PAPER_FORMULA)
    v = check_equiv(two, two, G0, L0, dbls(1.0, 2.0), identity_alignment(), cfg)
    assert v.status is Status.UNSUPPORTED
    assert v.detail.message == "published bound needs exactly three double parameters"

    # the derived bound needs both blocks inside the expression language
    fsub_text = (TESTDATA / "non_fma.ll").read_text().replace("fadd", "fsub")
    (mutant,) = parse_module(fsub_text)
    cfg = RefinementConfig(bound_source=BoundSource.DERIVED)
    v = check_equiv(FMA_FN, mutant, G0, L0, dbls(1.0, 1.0, 1.0), ALIGN, cfg)
    assert v.status is Status.UNSUPPORTED
    assert v.detail.message == "derived bound unavailable: no error model for fsub"


def test_checker_static_validation_is_input_independent():
    text = (TESTDATA / "fma.ll").read_text().replace("fmuladd.f64", "fmuladd.f32")
    (renamed,) = parse_module(text)
    checker = EquivChecker(NON_FMA_FN, renamed, ALIGN)
    assert checker.static_unsupported is not None
    for args in (dbls(1.0, 1.0, 0.0), (Poison(), Poison(), Poison())):
        assert checker.check(args).status is Status.UNSUPPORTED


# ---------------------------------------------------------------------------
# invariants


@settings(max_examples=200)
@given(function_defs(), st.data())
def test_check_equiv_reflexive(f, data):
    args = tuple(Double(data.draw(finite_double)) for _ in f.params)
    v = check_equiv(f, f, G0, L0, args, identity_alignment())
    assert v.status is Status.PASS
    if v.detail.observed_diff is not None and not v.detail.vacuous:
        assert v.detail.observed_diff == 0.0


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
    if all(map(math.isfinite, (r1, r2, *xs))) and not v.detail.vacuous:
        exact = derive_bound(
            recover_expr(NON_FMA_FN),
            recover_expr(FMA_FN),
            {f"%{i}": abs(x) for i, x in enumerate(xs)},
        ).magnitude_bound
        assert abs(to_rational(r1) - to_rational(r2)) <= exact
        # the checker's compiled bound never undercuts the exact one
        assert to_rational(v.detail.bound_used) >= exact


def test_verdict_json_shape():
    v = check_equiv(FMA_FN, NON_FMA_FN, G0, L0, dbls(1.0, 1.0, 0.0), ALIGN)
    doc = v.to_json()
    assert doc["status"] == "pass"
    assert doc["args"][0] == {"decimal": "1.0", "hex": "0x3FF0000000000000"}
    assert doc["observed_diff"] == {"decimal": "0.0", "hex": "0x0000000000000000"}
    assert set(doc) == {"status"} | set(VerdictDetail().to_json())
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


def assert_compiled_matches_reference(checker, args):
    assert checker.check(args).to_json() == checker.check_reference(args).to_json()


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
    assert_compiled_matches_reference(checker, dbls(*xs))


def test_compiled_check_matches_reference_on_special_values():
    specials = (0.0, -0.0, MIN_SUBNORMAL, -MIN_SUBNORMAL, 1.0, math.inf, -math.inf, math.nan)
    checkers = [
        EquivChecker(orig, opt, align, cfg)
        for opt, orig, align in CANONICAL_CASES
        for cfg in (STRICT, RefinementConfig())
    ]
    for xs in itertools.product(specials, repeat=3):
        for checker in checkers:
            assert_compiled_matches_reference(checker, dbls(*xs))


@st.composite
def block_pairs(draw):
    """Two random blocks over the same parameters, with a random alignment.

    The fresh sets and pairs draw from the ids the blocks may bind plus one
    they never do, so pairs can miss and leftovers can differ in ids or bits.
    """
    n = draw(st.integers(min_value=0, max_value=3))
    opt = draw(function_defs(n_params=n, allow_fsub=True))
    orig = draw(function_defs(n_params=n, allow_fsub=True))
    ids = [anon(k) for k in range(n + 1, n + 7)]
    fresh_opt = draw(st.frozensets(st.sampled_from(ids)))
    fresh_orig = draw(st.frozensets(st.sampled_from(ids)))
    pairs = ()
    if fresh_opt and fresh_orig:
        pairs = tuple(draw(st.lists(
            st.tuples(st.sampled_from(sorted(fresh_opt, key=str)),
                      st.sampled_from(sorted(fresh_orig, key=str))),
            max_size=2,
        )))
    return opt, orig, AlignmentSpec(pairs, fresh_opt, fresh_orig)


@settings(max_examples=300)
@given(block_pairs(), st.sampled_from(CONFIGS), st.data())
def test_compiled_check_matches_reference_random_pairs(pair, cfg, data):
    opt, orig, align = pair
    checker = EquivChecker(orig, opt, align, cfg)
    assert (checker.compiled is None) == (checker.static_unsupported is not None)
    args = tuple(Double(data.draw(any_double)) for _ in opt.params)
    assert_compiled_matches_reference(checker, args)


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
    d = v.detail
    ms_orig, _ = interp_cfg2(orig, G0, L0, args)
    ms_opt, _ = interp_cfg2(opt, G0, L0, args)

    def holds(bound):
        return local_refine(ms_opt.locals, ms_orig.locals, align, bound, cfg) and double_refine(
            ms_opt.result, ms_orig.result, bound, cfg
        )

    def rejected(opt_id, orig_id):
        x, y = ms_opt.locals.lookup(opt_id), ms_orig.locals.lookup(orig_id)
        return x is None or y is None or not double_refine(x, y, d.bound_used, cfg)

    assert (v.status is Status.PASS) == holds(d.bound_used)
    assert d.failed_ids == tuple(f"{o}~{g}" for o, g in align.pairs if rejected(o, g))
    assert d.paper_disagrees == (d.audited and holds(d.bound_derived) != holds(d.bound_paper))


@given(st.lists(st.booleans(), min_size=3, max_size=3).filter(any), st.data())
def test_check_poison_takes_the_reference_path(poison_at, data):
    args = tuple(Poison() if p else Double(data.draw(any_double)) for p in poison_at)
    checker = EquivChecker(NON_FMA_FN, FMA_FN, ALIGN)
    assert checker.compiled is not None
    assert_compiled_matches_reference(checker, args)
    assert checker.check(args).detail.poison_result


def test_check_populated_environments_take_the_reference_path():
    g = GlobalEnv(entries=((GlobalId("gv"), Double(7.0)),))
    l = LocalEnv.empty().bind(LocalId("keep"), Double(5.0))
    args = dbls(1.0, 2.0, 3.0)
    for checker in (
        EquivChecker(NON_FMA_FN, FMA_FN, ALIGN, globals_env=g),
        EquivChecker(NON_FMA_FN, FMA_FN, ALIGN, locals_env=l),
    ):
        assert checker.compiled is None
        assert checker.check(args).status is Status.PASS
    # the same verdict as on empty environments, which take the compiled path
    assert (
        check_equiv(FMA_FN, NON_FMA_FN, g, L0, args, ALIGN).to_json()
        == check_equiv(FMA_FN, NON_FMA_FN, G0, L0, args, ALIGN).to_json()
    )


def test_check_arity_mismatch_still_raises():
    checker = EquivChecker(NON_FMA_FN, FMA_FN, ALIGN)
    with pytest.raises(ValueError):
        checker.check(dbls(1.0, 2.0))
