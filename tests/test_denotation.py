"""Event-trace semantics: frozen traces, environments, poison, fuzzing."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fma_tv._bits import bits_of, same_bits
from fma_tv.denotation import (
    INTRINSIC_INPUT_ERROR,
    TAU,
    EvalError,
    GlobalEnv,
    IntrinsicCallEvent,
    IntrinsicError,
    LocalEnv,
    LocalRead,
    LocalWrite,
    Ret,
    Tau,
    Trace,
    UndefinedLocalError,
    UnknownIntrinsicError,
    compile_block,
    denote_block,
    denote_instr,
    eval_expr,
    interp_cfg2,
    llvm_fmuladd_f64,
    strip_taus,
)
from fma_tv.fp_semantics import Double, Poison
from fma_tv.ir_core import (
    DoubleLit,
    DType,
    FBinop,
    FBinopKind,
    GlobalId,
    IntrinsicCall,
    LocalId,
    LocalRef,
    check_wellformed,
    parse_module,
    WellformednessError,
)
from oracles import oracle_fma
from strategies import any_double, function_defs

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"
(FMA_FN,) = parse_module((TESTDATA / "fma.ll").read_text())
(NON_FMA_FN,) = parse_module((TESTDATA / "non_fma.ll").read_text())


def anon(n):
    return LocalId.anon(n)


def dbls(*xs):
    return tuple(Double(x) for x in xs)


# ---------------------------------------------------------------------------
# frozen whole-block traces


def test_fma_block_trace():
    trace = denote_block(FMA_FN, dbls(1.0, 1.0, 0.0))
    assert trace.events == (
        LocalRead(anon(0), Double(1.0)),
        LocalRead(anon(1), Double(1.0)),
        LocalRead(anon(2), Double(0.0)),
        IntrinsicCallEvent(
            GlobalId("llvm.fmuladd.f64"), dbls(1.0, 1.0, 0.0), Double(1.0)
        ),
        LocalWrite(anon(4), Double(1.0)),
        LocalRead(anon(4), Double(1.0)),
        Ret(Double(1.0)),
    )
    assert not any(isinstance(e, Tau) for e in trace)


def test_non_fma_block_trace():
    trace = denote_block(NON_FMA_FN, dbls(1.0, 1.0, 0.0))
    assert trace.events == (
        LocalRead(anon(0), Double(1.0)),
        LocalRead(anon(1), Double(1.0)),
        LocalWrite(anon(4), Double(1.0)),
        TAU,
        LocalRead(anon(4), Double(1.0)),
        LocalRead(anon(2), Double(0.0)),
        LocalWrite(anon(5), Double(1.0)),
        LocalRead(anon(5), Double(1.0)),
        Ret(Double(1.0)),
    )
    assert sum(isinstance(e, Tau) for e in trace) == 1


def test_block_returns_match_oracle():
    args = (0.1, 0.2, 0.3)
    trace = denote_block(FMA_FN, dbls(*args))
    assert trace.events[-1] == Ret(Double(oracle_fma(*args)))


def test_traces_differ_on_contraction_witness():
    # inputs where fusing changes the computed double
    args = dbls(1.0 + 2.0**-27, 1.0 + 2.0**-27, -(1.0 + 2.0**-26))
    fused = denote_block(FMA_FN, args).events[-1]
    split = denote_block(NON_FMA_FN, args).events[-1]
    assert fused == Ret(Double(2.0**-54))
    assert split == Ret(Double(0.0))


# ---------------------------------------------------------------------------
# events and traces


def test_event_rendering():
    assert str(LocalWrite(anon(4), Double(1.0))) == (
        "LocalWrite %4 <- 0x3FF0000000000000 (1.0)"
    )
    assert str(LocalRead(LocalId("x"), Poison())) == "LocalRead %x -> poison(double)"
    assert str(TAU) == "Tau"
    assert str(Ret(Double(0.0))) == "Ret 0x0000000000000000 (0.0)"
    call = IntrinsicCallEvent(
        GlobalId("llvm.fmuladd.f64"), dbls(1.0, 2.0), Double(2.0)
    )
    assert "llvm.fmuladd.f64" in str(call)
    assert str(call).endswith("-> 0x4000000000000000 (2.0)")


def test_trace_render_lines():
    trace = denote_block(FMA_FN, dbls(1.0, 1.0, 0.0))
    lines = trace.render().splitlines()
    assert len(lines) == len(trace.events)
    assert lines[0] == "LocalRead %0 -> 0x3FF0000000000000 (1.0)"
    assert lines[-1] == "Ret 0x3FF0000000000000 (1.0)"


def test_strip_taus():
    t = Trace((TAU, LocalWrite(anon(1), Double(0.0)), TAU, TAU, Ret(Double(0.0))))
    stripped = strip_taus(t)
    assert stripped.events == (LocalWrite(anon(1), Double(0.0)), Ret(Double(0.0)))
    assert strip_taus(stripped) == stripped
    assert strip_taus(Trace(())) == Trace(())


@given(function_defs(), st.data())
def test_strip_taus_is_subsequence(f, data):
    args = tuple(
        Double(data.draw(any_double)) for _ in f.params
    )
    trace = denote_block(f, args)
    stripped = strip_taus(trace)
    it = iter(trace.events)
    assert all(any(e == got for got in it) for e in stripped.events)
    assert not any(isinstance(e, Tau) for e in stripped)


# ---------------------------------------------------------------------------
# environments


def test_local_env_lookup_and_shadowing():
    env = LocalEnv.empty().bind(anon(1), Double(1.0)).bind(anon(2), Double(2.0))
    assert env.lookup(anon(1)) == Double(1.0)
    assert env.lookup(anon(3)) is None
    shadowed = env.bind(anon(1), Double(9.0))
    assert shadowed.lookup(anon(1)) == Double(9.0)
    # removal drops every binding of the name, not just the newest
    assert shadowed.remove(anon(1)).lookup(anon(1)) is None
    assert shadowed.remove(anon(1)).lookup(anon(2)) == Double(2.0)
    assert shadowed.remove_all([anon(1), anon(2)]).entries == ()


def test_global_env_defaults():
    g = GlobalEnv.empty()
    assert g.entries == ()


# ---------------------------------------------------------------------------
# operand and instruction evaluation


def test_eval_expr():
    env = LocalEnv.empty().bind(anon(1), Double(3.5))
    assert eval_expr(LocalRef(anon(1)), env) == Double(3.5)
    assert eval_expr(DoubleLit(2.0), env) == Double(2.0)
    with pytest.raises(UndefinedLocalError) as exc:
        eval_expr(LocalRef(anon(9)), env)
    assert exc.value.ident == anon(9)


def test_denote_instr_literal_mul():
    instr = FBinop(anon(4), FBinopKind.FMUL, (), DoubleLit(2.0), DoubleLit(3.0))
    env, events = denote_instr(instr, LocalEnv.empty())
    assert env.entries == ((anon(4), Double(6.0)),)
    # literal operands emit no reads
    assert events == (LocalWrite(anon(4), Double(6.0)),)


def test_denote_instr_unknown_intrinsic():
    instr = IntrinsicCall(anon(4), GlobalId("llvm.sqrt.f64"), (DoubleLit(4.0),), False)
    with pytest.raises(UnknownIntrinsicError) as exc:
        denote_instr(instr, LocalEnv.empty())
    assert exc.value.callee == GlobalId("llvm.sqrt.f64")


def test_denote_instr_flags_rejected():
    instr = FBinop(anon(4), FBinopKind.FADD, ("fast",), DoubleLit(1.0), DoubleLit(2.0))
    with pytest.raises(Exception):
        denote_instr(instr, LocalEnv.empty())


# ---------------------------------------------------------------------------
# the intrinsic on the value domain


def test_llvm_fmuladd_f64():
    assert llvm_fmuladd_f64(dbls(0.1, 0.2, 0.3)) == Double(oracle_fma(0.1, 0.2, 0.3))
    assert llvm_fmuladd_f64((Double(1.0), Poison(), Double(0.0))) == Poison()
    with pytest.raises(IntrinsicError) as exc:
        llvm_fmuladd_f64(dbls(1.0, 2.0))
    assert str(exc.value) == INTRINSIC_INPUT_ERROR
    with pytest.raises(IntrinsicError):
        llvm_fmuladd_f64((Double(1.0), Double(2.0), "3.0"))


# ---------------------------------------------------------------------------
# whole-function interpretation


def test_interp_preserves_globals():
    g = GlobalEnv(entries=((GlobalId("gv"), Double(7.0)),))
    state, _ = interp_cfg2(FMA_FN, g, LocalEnv.empty(), dbls(1.0, 2.0, 3.0))
    assert state.globals == g
    assert state.result == Double(oracle_fma(1.0, 2.0, 3.0))


def test_interp_initial_locals_shadowed_by_params():
    # a pre-existing binding for a parameter name is shadowed, not consulted
    l = LocalEnv.empty().bind(anon(0), Double(99.0)).bind(LocalId("keep"), Double(5.0))
    state, _ = interp_cfg2(FMA_FN, GlobalEnv.empty(), l, dbls(1.0, 1.0, 0.0))
    assert state.result == Double(1.0)
    assert state.locals.lookup(LocalId("keep")) == Double(5.0)
    assert state.locals.lookup(anon(0)) == Double(1.0)


def test_interp_arity_mismatch():
    with pytest.raises(ValueError):
        interp_cfg2(FMA_FN, GlobalEnv.empty(), LocalEnv.empty(), dbls(1.0, 2.0))
    with pytest.raises(ValueError):
        denote_block(FMA_FN, ())


def test_poison_argument_poisons_result():
    for f in (FMA_FN, NON_FMA_FN):
        args = (Double(1.0), Poison(), Double(2.0))
        state, trace = interp_cfg2(f, GlobalEnv.empty(), LocalEnv.empty(), args)
        assert state.result == Poison(DType.DOUBLE)
        assert trace.events[-1] == Ret(Poison(DType.DOUBLE))


@given(function_defs(), st.data())
def test_poison_everywhere_never_crashes(f, data):
    args = tuple(
        data.draw(st.one_of(st.just(Poison()), any_double.map(Double)))
        for _ in f.params
    )
    state, trace = interp_cfg2(f, GlobalEnv.empty(), LocalEnv.empty(), args)
    assert isinstance(trace.events[-1], Ret)
    assert trace.events[-1].value == state.result


@given(function_defs(), st.data())
def test_interp_deterministic_and_consistent(f, data):
    args = tuple(Double(data.draw(any_double)) for _ in f.params)
    s1, t1 = interp_cfg2(f, GlobalEnv.empty(), LocalEnv.empty(), args)
    s2, t2 = interp_cfg2(f, GlobalEnv.empty(), LocalEnv.empty(), args)
    assert t1 == t2
    assert s1.result == s2.result
    assert denote_block(f, args) == t1
    # taus appear exactly between consecutive instructions
    assert sum(isinstance(e, Tau) for e in t1) == max(0, len(f.body.blk_code) - 1)
    # every write in the trace is visible in the final environment history
    for e in t1.events:
        if isinstance(e, LocalWrite):
            assert (e.id, e.value) in s1.locals.entries


@given(function_defs(), st.data())
def test_wellformedness_predicts_undefined_locals(f, data):
    # break some functions by renaming a random destination
    mutate = data.draw(st.booleans())
    if mutate and f.body.blk_code:
        idx = data.draw(st.integers(0, len(f.body.blk_code) - 1))
        instr = f.body.blk_code[idx]
        bad = type(instr)(
            **{**{fld: getattr(instr, fld) for fld in instr.__dataclass_fields__},
               "dest": LocalId("rogue")},
        )
        body = type(f.body)(
            f.body.blk_id,
            f.body.blk_phis,
            f.body.blk_code[:idx] + (bad,) + f.body.blk_code[idx + 1:],
            f.body.blk_term,
        )
        f = type(f)(f.name, f.params, body)
    args = tuple(Double(data.draw(any_double)) for _ in f.params)
    try:
        check_wellformed(f)
        wf = True
    except WellformednessError:
        wf = False
    try:
        denote_block(f, args)
        ran = True
    except UndefinedLocalError:
        ran = False
    if wf:
        assert ran
    if not ran:
        assert not wf


# ---------------------------------------------------------------------------
# compiled straight-line evaluation against the interpreter


@settings(max_examples=300)
@given(function_defs(allow_fsub=True), st.data())
def test_compiled_block_matches_interpreter(f, data):
    xs = tuple(data.draw(any_double) for _ in f.params)
    compiled = compile_block(f)
    assert compiled is not None
    slots = compiled.run(xs)
    state, _ = interp_cfg2(f, GlobalEnv.empty(), LocalEnv.empty(), dbls(*xs))
    # the same final environment, id for id and bit for bit, and the same return
    assert [k for k, _ in compiled.entries] == [k for k, _ in state.locals.entries]
    for (ident, slot), (_, value) in zip(compiled.entries, state.locals.entries):
        assert same_bits(slots[slot], value.v), ident
        assert compiled.slot_of(ident) == slot
    assert same_bits(slots[compiled.result], state.result.v)


def test_compiled_block_canonical_pair():
    witness = (1.0 + 2.0**-27, 1.0 + 2.0**-27, -(1.0 + 2.0**-26))
    for f in (FMA_FN, NON_FMA_FN):
        compiled = compile_block(f)
        state, _ = interp_cfg2(f, GlobalEnv.empty(), LocalEnv.empty(), dbls(*witness))
        assert compiled.consts == ()
        assert compiled.run(witness)[compiled.result] == state.result.v
    assert compile_block(FMA_FN).run(witness)[3] == 2.0**-54
    assert compile_block(NON_FMA_FN).slot_of(anon(9)) is None


def test_compiled_block_literals_take_their_own_slots():
    (f,) = parse_module(
        "define double @f(double %0) {\n"
        "  %2 = fmul double %0, 2.0\n"
        "  %3 = call double @llvm.fmuladd.f64(double %2, double -0.0, double %0)\n"
        "  ret double 0x7FF8000000000001\n"
        "}"
    )
    compiled = compile_block(f)
    # parameter, then the literals in program order, then one slot per result
    assert [bits_of(c) for c in compiled.consts] == [
        bits_of(2.0), bits_of(-0.0), 0x7FF8000000000001
    ]
    assert compiled.entries == ((anon(3), 5), (anon(2), 4), (anon(0), 0))
    assert compiled.result == 3
    state, _ = interp_cfg2(f, GlobalEnv.empty(), LocalEnv.empty(), dbls(3.0))
    slots = compiled.run((3.0,))
    assert slots[4] == 6.0
    assert same_bits(slots[5], state.locals.lookup(anon(3)).v)
    assert same_bits(slots[compiled.result], state.result.v)


def test_compile_block_refuses_what_the_interpreter_rejects():
    for text in (
        (TESTDATA / "non_fma.ll").read_text().replace("fadd double", "fadd fast double"),
        (TESTDATA / "fma.ll").read_text().replace("fmuladd.f64", "fmuladd.f32"),
        "define double @f(double %0) {\n  ret double %7\n}",
        "define double @f(double %0) {\n  %2 = fadd double %0, %5\n  ret double %2\n}",
    ):
        (f,) = parse_module(text)
        assert compile_block(f) is None
        with pytest.raises(EvalError):
            interp_cfg2(f, GlobalEnv.empty(), LocalEnv.empty(), dbls(*([1.0] * len(f.params))))
