"""Parser, printer, and wellformedness checks for the IR fragment."""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fma_tv.ir_core import (
    BasicBlock,
    DoubleLit,
    FBinop,
    FAST_MATH_FLAGS,
    FBinopKind,
    FunctionDef,
    GlobalId,
    IntrinsicCall,
    LocalId,
    LocalRef,
    ParseError,
    Ret,
    WellformednessError,
    WfKind,
    check_wellformed,
    parse_module,
    print_block,
)
from strategies import function_defs

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"
FMA_TEXT = (TESTDATA / "fma.ll").read_text()
NON_FMA_TEXT = (TESTDATA / "non_fma.ll").read_text()


# ---------------------------------------------------------------------------
# parsing the canonical pair


def test_parse_fma_block():
    (f,) = parse_module(FMA_TEXT)
    assert f.name == GlobalId("f1")
    assert f.params == (LocalId.anon(0), LocalId.anon(1), LocalId.anon(2))
    assert f.body.blk_id == LocalId.anon(3)
    assert f.body.blk_phis == ()
    assert len(f.body.blk_code) == 1
    call = f.body.blk_code[0]
    assert isinstance(call, IntrinsicCall)
    assert call.dest == LocalId.anon(4)
    assert call.callee == GlobalId("llvm.fmuladd.f64")
    assert call.tail is True
    assert call.args == (
        LocalRef(LocalId.anon(0)),
        LocalRef(LocalId.anon(1)),
        LocalRef(LocalId.anon(2)),
    )
    assert f.body.blk_term == Ret(LocalRef(LocalId.anon(4)))


def test_parse_non_fma_block():
    (f,) = parse_module(NON_FMA_TEXT)
    assert len(f.body.blk_code) == 2
    mul, add = f.body.blk_code
    assert isinstance(mul, FBinop) and mul.kind is FBinopKind.FMUL
    assert mul.dest == LocalId.anon(4)
    assert mul.fm_flags == ()
    assert isinstance(add, FBinop) and add.kind is FBinopKind.FADD
    assert add.dest == LocalId.anon(5)
    assert add.lhs == LocalRef(LocalId.anon(4))
    assert add.rhs == LocalRef(LocalId.anon(2))
    assert f.body.blk_term == Ret(LocalRef(LocalId.anon(5)))


def test_parse_minimal_block():
    (f,) = parse_module("define double @f() { ret double 0.0 }")
    assert f.params == ()
    assert f.body.blk_code == ()
    assert f.body.blk_id == LocalId.anon(0)
    assert f.body.blk_term == Ret(DoubleLit(0.0))


def test_parse_declares_recorded():
    # the `declare` line is parsed for shape and dropped
    assert "declare double @llvm.fmuladd.f64" in FMA_TEXT
    (f,) = parse_module(FMA_TEXT)
    assert f.name == GlobalId("f1")


def test_parse_literal_forms():
    (f,) = parse_module(
        "define double @f() {\n"
        "  %1 = fadd double 1.5, 0x3FF0000000000000\n"
        "  ret double %1\n"
        "}"
    )
    instr = f.body.blk_code[0]
    assert instr.lhs == DoubleLit(1.5)
    assert instr.rhs == DoubleLit(1.0)


def test_parse_comments_and_named_locals():
    (f,) = parse_module(
        "; leading comment\n"
        "define double @g(double %x, double %y) { ; trailing\n"
        "  %sum = fadd double %x, %y\n"
        "  ret double %sum\n"
        "}\n"
    )
    assert f.params == (LocalId("x"), LocalId("y"))
    assert f.body.blk_code[0].dest == LocalId("sum")
    assert str(f.params[0]) == "%x"


def test_parse_fast_math_flags_accepted():
    (f,) = parse_module(
        "define double @f(double %0, double %1) {\n"
        "  %3 = fadd fast double %0, %1\n"
        "  ret double %3\n"
        "}"
    )
    assert f.body.blk_code[0].fm_flags == ("fast",)


# ---------------------------------------------------------------------------
# parse errors


def expect_parse_error(text, needle):
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    assert needle in str(exc.value)
    assert exc.value.line >= 1 and exc.value.col >= 1


def test_control_flow_rejected():
    expect_parse_error(
        "define double @f(double %0) {\n  br label %exit\n}", "unsupported: control flow"
    )
    expect_parse_error(
        "define double @f(double %0) {\nentry:\n  ret double %0\n}",
        "unsupported: control flow",
    )
    expect_parse_error(
        "define double @f(double %0) {\n  ret double %0\n  ret double %0\n}",
        "unsupported: control flow",
    )


def test_bad_literals_rejected():
    expect_parse_error(
        "define double @f() { ret double 1 }", "not a valid double literal"
    )
    expect_parse_error(
        "define double @f() { ret double 0x3FF }", "needs 16 digits"
    )


def test_unknown_opcode_rejected():
    expect_parse_error(
        "define double @f(double %0) {\n  %2 = fdiv double %0, %0\n  ret double %2\n}",
        "unknown instruction opcode",
    )


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_module("define double @f() {\n  ret double 1\n}")
    assert exc.value.line == 2


_HEAD = "define double @f(double %0) {\n"
PARSE_ERRORS = {
    "end of input in the parameters": (
        "define double @f(double %0,", (1, 28, "expected 'double' (found end of input)")),
    "end of input after the open paren": (
        "define double @f(", (1, 18, "expected 'double' (found end of input)")),
    "end of input after '='": (_HEAD + "  %1 =", (2, 7, "expected opcode (found end of input)")),
    "end of input in a declare": ("declare double @g(double", (1, 25, "unexpected end of input")),
    "brace in a declare": ("declare double @g(double, {", (1, 27, "expected ')' (found '{')")),
    "end of input in an attributes group": (
        "attributes #0 = { nounwind", (1, 27, "unexpected end of input")),
    "end of input in the block": (
        _HEAD, (1, 30, "expected instruction or 'ret' (found end of input)")),
    "label": (_HEAD + "entry:\n  ret double %0\n}", (2, 1, "unsupported: control flow")),
    "ret then colon": (_HEAD + "  ret :", (2, 3, "unsupported: control flow")),
    "br as an opcode": (_HEAD + "  %x = br label %e\n}", (2, 8, "unsupported: control flow")),
    "br as a statement": (_HEAD + "  br label %e\n}", (2, 3, "unsupported: control flow")),
    "instruction after ret": (
        _HEAD + "  ret double %0\n  ret double %0\n}", (3, 3, "unsupported: control flow")),
    "punctuation after ret": (_HEAD + "  ret double %0 )", (2, 17, "expected '}' (found ')')")),
    "flag on a call": (
        _HEAD + "  %1 = tail call contract double @llvm.fmuladd.f64(double %0, double %0, double %0)\n"
        "  ret double %1\n}",
        (2, 18, "expected 'double' (found 'contract')"),
    ),
    "3-digit hex literal": (
        _HEAD + "  ret double 0x3FF\n}", (2, 14, "hex double literal needs 16 digits, got 3")),
    "integer literal": (
        _HEAD + "  ret double 1\n}", (2, 14, "integer literal '1' is not a valid double literal")),
    "fdiv": (
        _HEAD + "  %1 = fdiv double %0, %0\n  ret double %1\n}",
        (2, 8, "unknown instruction opcode (found 'fdiv')"),
    ),
    "stray top-level token": ("foo", (1, 1, "expected 'define' or 'declare' (found 'foo')")),
    "stray token after a define": (
        _HEAD + "  ret double %0\n}\n)", (4, 1, "expected 'define' or 'declare' (found ')')")),
    "unlexable character": (
        "define double @f() { ret double 0.0 } !", (1, 39, "unexpected character '!'")),
}


@pytest.mark.parametrize("name", PARSE_ERRORS)
def test_parse_error_exact_position_and_message(name):
    text, expected = PARSE_ERRORS[name]
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == expected


# testdata/fma.ll as clang writes a module: header lines, comments, and
# attribute groups that hold string attributes
CLANG_FMA = """\
; ModuleID = 'fma.c'
source_filename = "fma.c"
target datalayout = "e-m:e-p270:32:32-p271:32:32-p272:64:64-i64:64-f80:128-n8:16:32:64-S128"
target triple = "x86_64-pc-linux-gnu"

; Function Attrs: mustprogress nofree nosync nounwind willreturn memory(none) uwtable
define dso_local noundef double @f1(double noundef %0, double noundef %1, double noundef %2) local_unnamed_addr #0 {
  %4 = tail call double @llvm.fmuladd.f64(double %0, double %1, double %2)
  ret double %4
}

; Function Attrs: nocallback nofree nosync nounwind speculatable willreturn memory(none)
declare double @llvm.fmuladd.f64(double, double, double) #1

attributes #0 = { mustprogress nofree nosync nounwind willreturn memory(none) uwtable "frame-pointer"="none" \
"min-legal-vector-width"="0" "no-trapping-math"="true" "target-cpu"="x86-64" "target-features"="+cx8,+sse2,+x87" }
attributes #1 = { nocallback nofree nosync nounwind speculatable willreturn memory(none) }
"""


def test_clang_module_parses_like_the_bare_block():
    assert parse_module(CLANG_FMA) == parse_module((TESTDATA / "fma.ll").read_text())


# a quoted string outside a header line or an attribute group
STRING_ERRORS = {
    "string as a parameter": (
        'define double @f(double "x") {\n  ret double 0.0\n}', (1, 25, "expected ')' (found '\"x\"')")),
    "string as an operand": (_HEAD + '  ret double "x"\n}', (2, 14, "expected operand (found '\"x\"')")),
    "string function attribute": (
        'define double @f() "frame-pointer"="none" {\n  ret double 0.0\n}',
        (1, 20, "expected '{' (found '\"frame-pointer\"')")),
    "string at top level": ('"fma.c"', (1, 1, "expected 'define' or 'declare' (found '\"fma.c\"')")),
    "header without '='": ('target triple "x"', (1, 15, "expected '=' (found '\"x\"')")),
    "header without a string": ("source_filename = fma", (1, 19, "expected 'string' (found 'fma')")),
    "unknown target line": ('target foo = "x"', (1, 1, "expected 'define' or 'declare' (found 'target')")),
    "unterminated string": ('source_filename = "fma.c', (1, 19, "unexpected character '\"'")),
}


@pytest.mark.parametrize("name", STRING_ERRORS)
def test_quoted_string_elsewhere_is_a_parse_error(name):
    text, expected = STRING_ERRORS[name]
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == expected


# ---------------------------------------------------------------------------
# printing


def test_print_uses_hex_literals():
    f = FunctionDef(
        GlobalId("f"),
        (),
        BasicBlock(LocalId.anon(0), (), (), Ret(DoubleLit(0.0))),
    )
    assert "0x0000000000000000" in print_block(f)
    g = FunctionDef(
        GlobalId("f"),
        (),
        BasicBlock(LocalId.anon(0), (), (), Ret(DoubleLit(1.0))),
    )
    assert "0x3FF0000000000000" in print_block(g)


def test_print_parse_roundtrip_canonical():
    for text in (FMA_TEXT, NON_FMA_TEXT):
        (f,) = parse_module(text)
        (g,) = parse_module(print_block(f))
        assert f == g
        assert print_block(f) == print_block(g)


def test_attrs_do_not_affect_equality():
    assert "local_unnamed_addr #0" in FMA_TEXT
    (with_attrs,) = parse_module(FMA_TEXT)
    (without,) = parse_module(print_block(with_attrs))
    assert "#0" not in print_block(with_attrs)
    assert with_attrs == without


@given(function_defs())
def test_print_parse_roundtrip(f):
    (g,) = parse_module(print_block(f))
    assert f == g


@st.composite
def decorated_function_defs(draw):
    """Random blocks with fast-math flags, named parameters and locals, and `tail` on and off."""
    f = draw(function_defs(allow_fsub=True))
    ids = list(f.params) + [instr.dest for instr in f.body.blk_code]
    names = draw(st.lists(st.from_regex(r"[-a-zA-Z$._][-a-zA-Z$._0-9]{0,5}", fullmatch=True),
                          min_size=len(ids), max_size=len(ids), unique=True))
    rename = {i: LocalId(n) if draw(st.booleans()) else i for i, n in zip(ids, names)}

    def ref(e):
        return LocalRef(rename[e.id]) if isinstance(e, LocalRef) else e

    code = []
    for instr in f.body.blk_code:
        if isinstance(instr, FBinop):
            flags = tuple(draw(st.lists(st.sampled_from(sorted(FAST_MATH_FLAGS)), unique=True)))
            instr = dataclasses.replace(instr, fm_flags=flags, lhs=ref(instr.lhs), rhs=ref(instr.rhs))
        else:
            instr = dataclasses.replace(instr, args=tuple(map(ref, instr.args)))
        code.append(dataclasses.replace(instr, dest=rename[instr.dest]))
    body = dataclasses.replace(f.body, blk_code=tuple(code), blk_term=Ret(ref(f.body.blk_term.value)))
    return FunctionDef(f.name, tuple(rename[p] for p in f.params), body)


def decorated_text(f):
    """`f` as clang prints it: attributes, a `declare`, an `attributes` trailer, comments, CRLF."""
    params = ", ".join(f"double noundef {p}" for p in f.params)
    lines = [
        "; ModuleID = 'decorated.c'",
        "declare double @llvm.fmuladd.f64(double, double noundef, double) #1",
        f"define dso_local noundef double {f.name}({params}) local_unnamed_addr #0 {{ ; entry",
    ]
    for instr in f.body.blk_code:
        if isinstance(instr, IntrinsicCall):
            args = ", ".join(f"double noundef {a}" for a in instr.args)
            tail = "tail " if instr.tail else ""
            lines.append(f"  {instr.dest} = {tail}call noundef double {instr.callee}({args}) #2")
        else:
            lines.append(f"  {instr} ; {instr.kind}")
    lines += [f"  {f.body.blk_term}", "}", "attributes #0 = { nounwind { nested } }"]
    return "\r\n".join(lines) + "\r\n"


@given(decorated_function_defs())
def test_print_parse_roundtrip_with_flags_and_names(f):
    assert parse_module(print_block(f)) == (f,)
    assert parse_module(decorated_text(f)) == (f,)


def test_roundtrip_preserves_nan_literal_bits():
    f = FunctionDef(
        GlobalId("f"),
        (),
        BasicBlock(
            LocalId.anon(0),
            (),
            (),
            Ret(DoubleLit(math.nan)),
        ),
    )
    (g,) = parse_module(print_block(f))
    assert g.body.blk_term.value == DoubleLit(math.nan)


# ---------------------------------------------------------------------------
# wellformedness


def test_wellformed_canonical():
    for text in (FMA_TEXT, NON_FMA_TEXT):
        (f,) = parse_module(text)
        check_wellformed(f)


def expect_wf_error(f, kind, ident):
    with pytest.raises(WellformednessError) as exc:
        check_wellformed(f)
    assert exc.value.kind is kind
    assert exc.value.ident == ident


def test_undefined_local_detected():
    (f,) = parse_module(
        "define double @f(double %0) {\n  %2 = fadd double %9, %0\n  ret double %2\n}"
    )
    expect_wf_error(f, WfKind.UNDEFINED_LOCAL, "%9")


def test_undefined_local_in_terminator():
    (f,) = parse_module("define double @f(double %0) { ret double %7 }")
    expect_wf_error(f, WfKind.UNDEFINED_LOCAL, "%7")


def test_duplicate_dest_detected():
    (f,) = parse_module(
        "define double @f(double %0) {\n"
        "  %2 = fadd double %0, %0\n"
        "  %2 = fmul double %0, %0\n"
        "  ret double %2\n"
        "}"
    )
    expect_wf_error(f, WfKind.DUPLICATE_DEST, "%2")


def test_duplicate_param_detected():
    (f,) = parse_module(
        "define double @f(double %x, double %x) { ret double %x }"
    )
    expect_wf_error(f, WfKind.DUPLICATE_DEST, "%x")


def test_fast_math_flags_rejected_by_checker():
    (f,) = parse_module(
        "define double @f(double %0, double %1) {\n"
        "  %3 = fadd fast double %0, %1\n"
        "  ret double %3\n"
        "}"
    )
    expect_wf_error(f, WfKind.UNSUPPORTED_FLAGS, "%3")


def test_structural_violations_win_over_earlier_flags():
    head = "define double @f(double %0, double %1) {\n  %3 = fadd fast double %0, %1\n"
    for rest, kind, ident in (
        ("  %3 = fmul double %3, %1\n  ret double %3\n}", WfKind.DUPLICATE_DEST, "%3"),
        ("  %4 = fmul double %3, %9\n  ret double %4\n}", WfKind.UNDEFINED_LOCAL, "%9"),
        ("  ret double %8\n}", WfKind.UNDEFINED_LOCAL, "%8"),
        ("  %4 = fmul fast double %3, %1\n  ret double %4\n}", WfKind.UNSUPPORTED_FLAGS, "%3"),
    ):
        (f,) = parse_module(head + rest)
        expect_wf_error(f, kind, ident)


def test_non_empty_phis_detected():
    f = FunctionDef(
        GlobalId("f"),
        (),
        BasicBlock(LocalId.anon(0), ("phi",), (), Ret(DoubleLit(0.0))),
    )
    expect_wf_error(f, WfKind.NON_EMPTY_PHIS, "%0")


def test_use_before_def_order():
    # the read of %3 happens before %3 is assigned, even though a later
    # instruction defines it
    (f,) = parse_module(
        "define double @f(double %0) {\n"
        "  %2 = fadd double %3, %0\n"
        "  %3 = fmul double %0, %0\n"
        "  ret double %3\n"
        "}"
    )
    expect_wf_error(f, WfKind.UNDEFINED_LOCAL, "%3")


@given(function_defs())
def test_generated_functions_wellformed(f):
    check_wellformed(f)
