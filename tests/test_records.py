"""Value semantics shared by the package's records (`fma_tv._bits.Record`)."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given

from fma_tv import denotation, ir_core
from fma_tv._bits import Double, Record
from fma_tv.cli import Report, SamplerConfig, compile_draw
from fma_tv.denotation import TAU, GlobalEnv, IntrinsicCallEvent, LocalEnv, LocalRead, LocalWrite, MachineState, Trace
from fma_tv.error_model import Add, ErrorModelParams, Fma, Mul, Var, derive_bound
from fma_tv.fp_semantics import Poison
from fma_tv.ir_core import (
    FMULADD_F64, BasicBlock, FBinop, FBinopKind, FunctionDef, GlobalId, IntrinsicCall, LocalId, LocalRef, parse_module,
    print_block,
)
from fma_tv.refinement import AlignmentError, AlignmentSpec, RefinementConfig
from records import fields
from strategies import function_defs

X, Y = Var("x"), Var("y")
L4, L5 = LocalId("4"), LocalId("5")


def samples():
    """One record of each kind, all built afresh: two calls give equal records that are distinct objects."""
    l4, l5, x, y = LocalId("4"), LocalId("5"), Var("x"), Var("y")
    fmuladd = GlobalId(FMULADD_F64)
    block = BasicBlock(LocalId("0"), (), (IntrinsicCall(l4, fmuladd, (LocalRef(l5), Double(1.0), Double(2.0)), True),),
                       ir_core.Ret(LocalRef(l4)))
    return [
        Double(1.5), Poison(), l4, GlobalId("f"), LocalRef(l4),
        FBinop(l4, FBinopKind.FMUL, (), LocalRef(l5), Double(2.0)),
        ir_core.Ret(LocalRef(l4)), denotation.Ret(Double(0.5)), denotation.Tau(),
        LocalWrite(l4, Poison()), LocalRead(l5, Double(-0.0)), Trace((denotation.Tau(),)),
        LocalEnv(((l4, Double(1.0)),)), GlobalEnv(), x, Add(x, y), Mul(x, y), Fma(x, y, Double(3.0)),
        ErrorModelParams(), derive_bound(Add(Mul(x, y), Var("z")), Fma(x, y, Var("z")), {"x": 1.0, "y": 1.0, "z": 1.0}),
        AlignmentSpec(((l4, l5),), frozenset({l4}), frozenset({l5})), RefinementConfig(), SamplerConfig(seed=3),
        IntrinsicCall(l4, fmuladd, (LocalRef(l5), Double(1.0), Poison()), False),
        IntrinsicCallEvent(fmuladd, (Double(1.0), Double(2.0), Poison()), Poison()),
        block, FunctionDef(GlobalId("f"), (l5,), block),
        MachineState(GlobalEnv(), LocalEnv(((l4, Double(3.0)),)), Double(3.0)), ir_core._Token("local", "%4", 2, 3),
    ]


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_samples_cover_every_record_but_the_report():
    """`fma_tv.cli` imports every module of the package, so each record class is defined by now."""
    package = {cls for cls in _record_classes() if cls.__module__.startswith("fma_tv.")}
    assert package - {type(record) for record in samples()} == {Report}


def test_equal_records_hash_equal():
    for a, b in zip(samples(), samples()):
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@given(function_defs())
def test_reparsed_blocks_are_equal_and_hash_equal(f):
    (g,) = parse_module(print_block(f))
    assert g is not f and g == f and hash(g) == hash(f)


def test_equality_is_type_sensitive():
    assert Add(X, Y) != Mul(X, Y)
    assert LocalId("f") != GlobalId("f")
    assert ir_core.Ret(Double(1.0)) != denotation.Ret(Double(1.0))
    assert LocalWrite(L4, Double(1.0)) != LocalRead(L4, Double(1.0))
    assert Poison() != TAU
    assert Add(X, Y) != Add(Y, X)


@pytest.mark.parametrize("record, plain", [
    (L4, ("4",)), (L4, "4"), (Add(X, Y), (X, Y)), (Poison(), ()), (Double(1.0), 1.0), (Trace(()), ()),
])
def test_a_record_never_equals_its_fields(record, plain):
    assert record != plain and plain != record


def test_double_equality_is_by_bit_pattern():
    assert Double(math.nan) == Double(math.nan)
    assert hash(Double(math.nan)) == hash(Double(math.nan))
    assert Double(-0.0) != Double(0.0)
    assert Double(1.0) == Double(1.0)


def test_fields_cannot_be_assigned_or_deleted():
    for record in samples():
        assert not hasattr(record, "__dict__")
        for name in (*fields(record), "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_a_report_is_mutable_and_unhashable():
    report = Report({})
    report.verdict = "fail"
    report.counts["pass"] = 1
    assert report == Report({}, verdict="fail", counts={"pass": 1}) != Report({})
    assert Report({}).samples_run is not Report({}).samples_run
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(AttributeError):
        report.extra = 1


@pytest.mark.parametrize("record, text", [
    (L4, "LocalId(text='4')"),
    (Add(X, Double(1.5)), "Add(lhs=Var(name='x'), rhs=Double(1.5))"),
    (Poison(), "Poison()"),
    (TAU, "Tau()"),
    (LocalEnv(), "LocalEnv(entries=())"),
    (SamplerConfig(), "SamplerConfig(samples=1000000, seed=0, exp_min=-50, exp_max=50, include_special_corpus=True)"),
    (AlignmentSpec(), "AlignmentSpec(pairs=(), fresh_optimized=frozenset(), fresh_original=frozenset())"),
    (RefinementConfig(),
     "RefinementConfig(mode=<Mode.LENIENT: 'lenient'>, bound_source=<BoundSource.BOTH: 'both'>)"),
    (ErrorModelParams(delta=Fraction(1, 4), eta=0), "ErrorModelParams(delta=Fraction(1, 4), eta=Fraction(0, 1))"),
])
def test_repr_names_the_class_and_each_field(record, text):
    assert repr(record) == text


R4, R5 = LocalRef(L4), LocalRef(L5)


@pytest.mark.parametrize("cls, args, kwargs", [
    (Poison, (1.0,), {}),
    (Poison, (), {"v": 1.0}),
    (LocalId, ("4", "5"), {}),
    (LocalId, (), {}),
    (LocalId, (), {"txt": "4"}),
    (LocalId, ("4",), {"text": "4"}),
    (FBinop, (L4, FBinopKind.FADD, (), R4, R5, R5), {}),
    (FBinop, (L4, FBinopKind.FADD, (), R4), {}),
    (FBinop, (L4, FBinopKind.FADD), {"fm_flags": (), "lhs": R4}),
    (FBinop, (L4, FBinopKind.FADD, (), R4, R5), {"flags": ()}),
    (FBinop, (L4, FBinopKind.FADD, (), R4), {"lhs": R4, "rhs": R5}),
])
def test_a_wrong_field_list_raises_a_type_error_naming_the_class(cls, args, kwargs):
    """Too many fields, a missing one, an unknown keyword, or a field given by position and by keyword."""
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\b"):
        cls(*args, **kwargs)


def test_fields_bind_by_position_keyword_or_both():
    built = FBinop(L4, FBinopKind.FADD, (), R4, R5)
    assert FBinop(rhs=R5, lhs=R4, fm_flags=(), kind=FBinopKind.FADD, dest=L4) == built
    assert FBinop(L4, FBinopKind.FADD, (), rhs=R5, lhs=R4) == built
    assert (built.dest, built.kind, built.fm_flags, built.lhs, built.rhs) == (L4, FBinopKind.FADD, (), R4, R5)


def test_a_subclass_without_slots_keeps_its_parents_fields():
    class Flagged(FBinop):
        __slots__ = ()

    flagged = Flagged(L4, FBinopKind.FADD, ("fast",), R4, rhs=R5)
    assert flagged.fm_flags == ("fast",) and flagged.rhs == R5
    plain = FBinop(L4, FBinopKind.FADD, ("fast",), R4, R5)
    assert repr(flagged) == repr(plain).replace("FBinop", Flagged.__qualname__, 1)
    assert flagged != plain
    assert flagged == Flagged(L4, FBinopKind.FADD, ("fast",), R4, R5) != Flagged(L4, FBinopKind.FADD, (), R4, R5)
    with pytest.raises(TypeError, match=r"\.Flagged\(\)"):
        Flagged(L4)


def test_keyword_construction_and_defaults():
    cfg = SamplerConfig(samples=10, seed=2)
    assert (cfg.samples, cfg.seed, cfg.exp_min, cfg.exp_max, cfg.include_special_corpus) == (10, 2, -50, 50, True)
    assert Double(v=2.0).v == 2.0
    assert ErrorModelParams(delta=0, eta=0).delta == 0 and isinstance(ErrorModelParams(delta=0).delta, Fraction)
    assert LocalEnv().entries == GlobalEnv().entries == ()


def test_sampler_config_is_a_cache_key():
    assert compile_draw(3, SamplerConfig(samples=5)) is compile_draw(3, SamplerConfig(samples=5))
    assert compile_draw(3, SamplerConfig(exp_min=-5)) is not compile_draw(3, SamplerConfig())


@pytest.mark.parametrize("build, error, message", [
    (lambda: SamplerConfig(samples=0), ValueError, "samples must be >= 1, got 0"),
    (lambda: SamplerConfig(seed=-7), ValueError, "seed must be >= 0, got -7"),
    (lambda: SamplerConfig(exp_min=-1075), ValueError,
     "exponent range must satisfy -1074 <= min <= max <= 1023, got [-1075, 50]"),
    (lambda: SamplerConfig(exp_min=10, exp_max=9), ValueError,
     "exponent range must satisfy -1074 <= min <= max <= 1023, got [10, 9]"),
    (lambda: ErrorModelParams(delta=Fraction(-1, 2)), ValueError, "delta must be non-negative, got -1/2"),
    (lambda: ErrorModelParams(eta=Fraction(1, 10)), ValueError, "eta must be a dyadic rational, got 1/10"),
    (lambda: ErrorModelParams(delta=Fraction(1, 3), eta=-1), ValueError, "delta must be a dyadic rational, got 1/3"),
    (lambda: ErrorModelParams(delta=1), ValueError, "delta must be below 1, got 1"),
    (lambda: AlignmentSpec(((L4, L5),)), AlignmentError, "paired id %4 missing from fresh_optimized"),
    (lambda: AlignmentSpec(((L4, L5),), frozenset({L4})), AlignmentError, "paired id %5 missing from fresh_original"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()

