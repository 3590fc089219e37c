"""Command-line driver: sampling, reports, single runs, bound queries."""

import errno
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fma_tv
import fma_tv.cli
import fma_tv.refinement
from fma_tv.cli import (
    Report,
    SamplerConfig,
    _build_parser,
    cmd_bound,
    cmd_run,
    cmd_validate,
    compile_draw,
    corpus_tuples,
    main,
    sample_tuple,
    special_values,
    validate,
    _parse_value,
)
from fma_tv.denotation import INTRINSIC_INPUT_ERROR
from fma_tv.error_model import compile_paper_bound
from fma_tv.fp_semantics import (
    MAX_FINITE,
    MIN_SUBNORMAL,
    Double,
    Poison,
    round_rational_up,
)
from fma_tv.ir_core import parse_module
from fma_tv.refinement import (
    AlignmentSpec,
    BoundSource,
    EquivChecker,
    Mode,
    RefinementConfig,
    Status,
    load_alignment,
)
from fma_tv._bits import dual_of, hex_of
from strategies import block_pairs, function_defs
from test_refinement import dot_blocks

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"
BENCH = TESTDATA.parent / "bench"
FMA = str(TESTDATA / "fma.ll")
NON_FMA = str(TESTDATA / "non_fma.ll")
ALIGNMENT = str(TESTDATA / "alignment.json")

D = Fraction(1, 2**53)
H = Fraction(1, 2**1075)


def run_validate(tmp_path, *, original=NON_FMA, optimized=FMA, alignment=ALIGNMENT,
                 report_name="report.json", **kw):
    """cmd_validate against temp report; returns (exit_code, report dict, summary)."""
    report = tmp_path / report_name
    out, err = io.StringIO(), io.StringIO()
    sampler = SamplerConfig(**{k: v for k, v in kw.items() if k in SamplerConfig.__dataclass_fields__})
    code = cmd_validate(original, optimized, alignment, sampler,
                        report_path=str(report), out=out, err=err)
    doc = json.loads(report.read_text()) if report.exists() else None
    return code, doc, out.getvalue()


# ---------------------------------------------------------------------------
# sampler configuration and input generation


def test_sampler_config_defaults():
    cfg = SamplerConfig()
    assert (cfg.samples, cfg.seed, cfg.exp_min, cfg.exp_max) == (1_000_000, 0, -50, 50)
    assert cfg.include_special_corpus


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(samples=0)
    with pytest.raises(ValueError):
        SamplerConfig(exp_min=-1075)
    with pytest.raises(ValueError):
        SamplerConfig(exp_max=1024)
    with pytest.raises(ValueError):
        SamplerConfig(exp_min=10, exp_max=9)
    # random.Random(-7) is random.Random(7): a negative seed would replay a positive one
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SamplerConfig(seed=-7)
    SamplerConfig(exp_min=-1074, exp_max=1023)
    SamplerConfig(seed=0)


def test_special_values():
    vals = special_values()
    assert len(vals) == 16
    assert len(set(map(hex_of, vals))) == 16
    assert all(math.isfinite(v) for v in vals)
    assert {0.0, -0.0, MIN_SUBNORMAL, MAX_FINITE, -MAX_FINITE} <= set(vals)
    assert any(v == 0.0 and math.copysign(1, v) < 0 for v in vals)
    assert math.nextafter(1.0, 2.0) in vals
    assert math.nextafter(1.0, 0.0) in vals


def test_corpus_tuples_sizes():
    assert len(corpus_tuples(1)) == 16
    assert len(corpus_tuples(2)) == 256
    assert len(corpus_tuples(3)) == 4096
    # 16**4 would be 65536; the cross product is capped
    assert len(corpus_tuples(4)) == 10_000


def test_sample_tuple_deterministic():
    cfg = SamplerConfig(samples=1)
    a = [sample_tuple(random.Random(7), 3, cfg) for _ in range(5)]
    b = [sample_tuple(random.Random(7), 3, cfg) for _ in range(5)]
    assert a == b
    c = [sample_tuple(random.Random(8), 3, cfg) for _ in range(5)]
    assert a != c


def test_sample_tuple_respects_range():
    cfg = SamplerConfig(exp_min=-5, exp_max=5)
    rng = random.Random(0)
    seen_neg = seen_pos = False
    for _ in range(200):
        for x in sample_tuple(rng, 2, cfg):
            assert 2.0**-5 <= abs(x) < 2.0**6
            seen_neg |= x < 0
            seen_pos |= x > 0
    assert seen_neg and seen_pos


def randint_sample_tuple(rng, n_params, cfg):
    """The sampler as it was written with `rng.randint`: the stream to keep."""
    out = []
    for _ in range(n_params):
        sign = -1.0 if rng.getrandbits(1) else 1.0
        exp = rng.randint(cfg.exp_min, cfg.exp_max)
        mant = rng.getrandbits(52)
        out.append(sign * math.ldexp(1.0 + math.ldexp(mant, -52), exp))
    return tuple(out)


@pytest.mark.parametrize("exp_range", [(-50, 50), (-1074, 1023), (0, 0), (3, 4)])
@pytest.mark.parametrize("n_params", [1, 3, 16])
def test_sample_tuple_keeps_the_randint_stream(exp_range, n_params):
    cfg = SamplerConfig(exp_min=exp_range[0], exp_max=exp_range[1])
    new, old = random.Random(5), random.Random(5)
    for _ in range(300):
        got, want = sample_tuple(new, n_params, cfg), randint_sample_tuple(old, n_params, cfg)
        assert [hex_of(x) for x in got] == [hex_of(x) for x in want]
    assert new.getstate() == old.getstate()


@pytest.mark.parametrize("exp_range", [(-50, 50), (-1074, 1023), (-1074, -1074), (1023, 1023), (0, 63)])
@pytest.mark.parametrize("n_params", [0, 1, 3, 16])
def test_compiled_draw_keeps_the_sample_tuple_stream(exp_range, n_params):
    cfg = SamplerConfig(exp_min=exp_range[0], exp_max=exp_range[1])
    draw = compile_draw(n_params, cfg)
    new, ref, old = random.Random(5), random.Random(5), random.Random(5)
    for _ in range(300):
        got = draw(new)
        want = sample_tuple(ref, n_params, cfg)
        assert [hex_of(x) for x in got] == [hex_of(x) for x in want]
        assert [hex_of(x) for x in got] == [hex_of(x) for x in randint_sample_tuple(old, n_params, cfg)]
        assert type(got) is tuple and all(type(x) is float for x in got)
    assert new.getstate() == ref.getstate() == old.getstate()


def test_parse_value():
    assert _parse_value("poison") == Poison()
    assert _parse_value("0x3FF0000000000000") == Double(1.0)
    assert _parse_value("1.5") == Double(1.5)
    assert _parse_value("-2e3") == Double(-2000.0)
    for bad in ("garbage", "0x3FF", "0xZZZ0000000000000"):
        with pytest.raises(ValueError):
            _parse_value(bad)


# ---------------------------------------------------------------------------
# run


def run_cmd_run(block, inputs):
    out, err = io.StringIO(), io.StringIO()
    code = cmd_run(block, inputs, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_run_non_fma_block():
    code, out, _ = run_cmd_run(NON_FMA, "a=1.0,b=1.0,c=0.0")
    assert code == 0
    lines = out.splitlines()
    assert "LocalWrite %4 <- 0x3FF0000000000000 (1.0)" in lines
    assert "LocalWrite %5 <- 0x3FF0000000000000 (1.0)" in lines
    assert "Ret 0x3FF0000000000000 (1.0)" in lines
    assert not any(line == "Tau" for line in lines)
    assert "final locals:" in lines
    assert lines[-1] == "result: 0x3FF0000000000000 (1.0)"


def test_run_fma_block():
    code, out, _ = run_cmd_run(FMA, "a=1.0,b=1.0,c=0.0")
    assert code == 0
    lines = out.splitlines()
    assert sum(line.startswith("IntrinsicCall @llvm.fmuladd.f64") for line in lines) == 1
    assert "Ret 0x3FF0000000000000 (1.0)" in lines


@pytest.mark.parametrize("inputs", [
    "a=0x7FF8000000000123,b=1.0,c=1.0", "a=1.0,b=1.0,c=0xFFF8000000000001", "a=inf,b=0.0,c=1.0",
    "a=inf,b=1.0,c=-inf",
])
def test_run_fma_nan_is_canonical(inputs):
    code, out, _ = run_cmd_run(FMA, inputs)
    assert code == 0
    assert out.splitlines()[-1] == "result: 0x7FF8000000000000 (nan)"


def test_run_poison_input():
    code, out, _ = run_cmd_run(FMA, "a=poison,b=1.0,c=1.0")
    assert code == 0
    assert "Ret poison(double)" in out.splitlines()
    assert out.splitlines()[-1] == "result: poison(double)"


def test_run_input_aliases():
    base = run_cmd_run(NON_FMA, "a=2.0,b=3.0,c=4.0")
    for spelling in ("%0=2.0,%1=3.0,%2=4.0", "0=2.0,1=3.0,2=4.0", ",a=2.0,,b=3.0, ,c=4.0,"):
        assert run_cmd_run(NON_FMA, spelling) == base


def test_run_input_errors():
    for inputs in (
        "a=1.0,b=2.0",              # missing c
        "a=1.0,b=2.0,c=3.0,d=4.0",  # unknown name
        "a=1.0,a=2.0,b=1.0,c=1.0",  # duplicate
        "a=1.0,%0=2.0,b=3.0,c=4.0", # same parameter twice via alias
        "a",                        # not name=value
        "a=zz,b=1.0,c=1.0",         # unreadable value
    ):
        code, _, err = run_cmd_run(NON_FMA, inputs)
        assert code == 2, inputs
        assert err.startswith("error: ")


def test_run_rejects_separators_in_hex_bits():
    code, _, err = run_cmd_run(FMA, "a=0x3FF0_00000000000,b=1,c=0")
    assert code == 2 and "expected 0x followed by 16 hex digits" in err


def test_run_intrinsic_arity_error(tmp_path):
    block = tmp_path / "two_args.ll"
    block.write_text(
        "define double @f(double %0, double %1) {\n"
        "  %3 = call double @llvm.fmuladd.f64(double %0, double %1)\n"
        "  ret double %3\n"
        "}\n"
    )
    code, _, err = run_cmd_run(str(block), "a=1.0,b=2.0")
    assert code == 1
    assert INTRINSIC_INPUT_ERROR in err


MALFORMED_BLOCKS = {
    "duplicate parameter": (
        "define double @f(double %0, double %0) {\n  %2 = fadd double %0, %0\n  ret double %2\n}\n",
        "duplicate destination: %0",
    ),
    "duplicate destination": (
        "define double @f(double %0, double %1) {\n  %2 = fadd double %0, %1\n"
        "  %2 = fmul double %0, %1\n  ret double %2\n}\n",
        "duplicate destination: %2",
    ),
    "undefined local": (
        "define double @f(double %0, double %1) {\n  %2 = fadd double %0, %7\n  ret double %2\n}\n",
        "undefined local: %7",
    ),
    # a fast-math flag before a structural fault does not hide it
    "duplicate destination after a flag": (
        "define double @f(double %0, double %1) {\n  %2 = fmul fast double %0, %1\n"
        "  %2 = fadd double %2, %1\n  ret double %2\n}\n",
        "duplicate destination: %2",
    ),
}


@pytest.mark.parametrize("name", MALFORMED_BLOCKS)
def test_run_and_bound_refuse_malformed_blocks(tmp_path, name):
    text, message = MALFORMED_BLOCKS[name]
    block = tmp_path / "bad.ll"
    block.write_text(text)
    for code, out, err in (
        run_cmd_run(str(block), "a=1,b=2"),
        run_cmd_bound(str(block), str(block), "a=1,b=2"),
        run_cmd_bound(NON_FMA, str(block), "a=1,b=2,c=3"),
    ):
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("name", MALFORMED_BLOCKS)
def test_validate_refuses_malformed_blocks(tmp_path, name):
    text, message = MALFORMED_BLOCKS[name]
    block = tmp_path / "bad.ll"
    block.write_text(text)
    for original, optimized in ((str(block), FMA), (NON_FMA, str(block))):
        out, err = io.StringIO(), io.StringIO()
        code = cmd_validate(original, optimized, ALIGNMENT, SamplerConfig(samples=5), out=out, err=err)
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")


def test_run_parse_and_io_errors(tmp_path):
    bad = tmp_path / "bad.ll"
    bad.write_text("define double @f() { ret double 1 }")
    assert run_cmd_run(str(bad), "")[0] == 2
    assert run_cmd_run(str(tmp_path / "absent.ll"), "")[0] == 2


def test_clang_module_validates_and_a_stray_string_exits_2(tmp_path):
    clang = tmp_path / "clang.ll"
    clang.write_text('source_filename = "fma.c"\ntarget triple = "x86_64-pc-linux-gnu"\n'
                     + Path(FMA).read_text() + 'attributes #1 = { nounwind "frame-pointer"="none" }\n')
    code, doc, _ = run_validate(tmp_path, optimized=str(clang), samples=100)
    assert (code, doc["verdict"]) == (0, "pass")
    stray = tmp_path / "stray.ll"
    stray.write_text(Path(FMA).read_text().replace("#0 {", '"x" {'))
    out, err = io.StringIO(), io.StringIO()
    assert cmd_validate(NON_FMA, str(stray), ALIGNMENT, SamplerConfig(samples=5), out=out, err=err) == 2
    assert err.getvalue() == "error: line 1, col 103: expected '{' (found '\"x\"')\n"
    assert run_cmd_run(str(stray), "a=1,b=2,c=3")[:2] == (2, "")


@pytest.mark.parametrize("text, found", [
    ("", 0),
    ("define double @f() { ret double 0.0 }\ndefine double @g() { ret double 1.0 }\n", 2),
], ids=["empty", "two defines"])
def test_wrong_function_count_names_no_source_position(tmp_path, text, found):
    block = tmp_path / "count.ll"
    block.write_text(text)
    message = f"error: {block}: expected exactly one function definition, found {found}\n"
    assert run_cmd_run(str(block), "") == (2, "", message)
    assert run_cmd_bound(str(block), FMA, "a=1,b=1,c=1") == (2, "", message)
    out, err = io.StringIO(), io.StringIO()
    code = cmd_validate(str(block), FMA, ALIGNMENT, SamplerConfig(samples=5), out=out, err=err)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", message)


# ---------------------------------------------------------------------------
# bound


def run_cmd_bound(original, optimized, mags):
    out, err = io.StringIO(), io.StringIO()
    code = cmd_bound(original, optimized, mags, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_bound_canonical_pair():
    code, out, _ = run_cmd_bound(NON_FMA, FMA, "a=1.0,b=1.0,c=1.0")
    assert code == 0
    assert run_cmd_bound(NON_FMA, FMA, ",a=1.0,,b=1.0, ,c=1.0,") == (0, out, "")  # empty entries are skipped
    lines = out.splitlines()
    derived_expected = round_rational_up(7 * D + D * D + 4 * H + D * H)
    paper_expected = round_rational_up(
        4 * D + 5 * D**2 + D**3 + H * (4 + 4 * D + D**2)
    )
    assert lines[0] == f"derived bound: {derived_expected!r} ({hex_of(derived_expected)})"
    labels = [line.split()[0] for line in lines[1:5]]
    assert labels == ["original:mul[0]", "original:add[1]", "optimized:fma[0]", "comparison"]
    assert lines[5] == f"paper-formula bound: {paper_expected!r} ({hex_of(paper_expected)})"


def test_bound_paper_line_follows_roles(tmp_path):
    # the published formula is fed by role (a, b, c), not by parameter order
    _, canonical, _ = run_cmd_bound(NON_FMA, FMA, "a=1e10,b=1e10,c=1")
    expected = canonical.splitlines()[-1]
    assert expected.startswith("paper-formula bound: 33306.6907387547 ")
    header = "define double @f(double %0, double %1, double %2) {\n"
    for perm in itertools.permutations(range(3)):
        a, b, c = (f"%{i}" for i in perm)
        mags = ",".join(f"%{i}={'1' if i == perm[2] else '1e10'}" for i in range(3))
        optimized = tmp_path / "opt.ll"
        optimized.write_text(
            header + f"  %4 = call double @llvm.fmuladd.f64(double {a}, double {b}, double {c})\n"
            "  ret double %4\n}\n"
        )
        for x, y in ((a, b), (b, a)):
            for s, t in (("%4", c), (c, "%4")):
                original = tmp_path / "orig.ll"
                original.write_text(
                    header + f"  %4 = fmul double {x}, {y}\n  %5 = fadd double {s}, {t}\n"
                    "  ret double %5\n}\n"
                )
                code, out, _ = run_cmd_bound(str(original), str(optimized), mags)
                assert code == 0 and out.splitlines()[-1] == expected, (perm, x, y, s, t)


def test_bound_identical_files():
    code, out, _ = run_cmd_bound(NON_FMA, NON_FMA, "a=1.0,b=1.0,c=1.0")
    assert code == 0
    lines = out.splitlines()
    expected = round_rational_up(2 * D + H)
    assert lines[0] == f"derived bound: {expected!r} ({hex_of(expected)})"
    assert len(lines) == 2 and lines[1].split()[0] == "comparison"
    assert not any("paper" in line for line in lines)


def test_mismatched_variable_sets_get_one_reason(tmp_path):
    # `bound` and `validate` refuse a pair that reads different variables for the same reason
    header = "define double @f(double %0, double %1) {\n"
    original, optimized = tmp_path / "orig.ll", tmp_path / "opt.ll"
    original.write_text(header + "  %3 = fadd double %0, %0\n  ret double %3\n}\n")
    optimized.write_text(header + "  %3 = fadd double %1, %1\n  ret double %3\n}\n")
    reason = "variable sets differ: ['%0'] vs ['%1']"
    assert run_cmd_bound(str(original), str(optimized), "a=1,b=1") == (2, "", f"error: {reason}\n")
    alignment = tmp_path / "align.json"
    alignment.write_text('{"pairs": [["%3", "%3"]], "fresh_optimized": ["%3"], "fresh_original": ["%3"]}')
    code, doc, _ = run_validate(tmp_path, original=str(original), optimized=str(optimized),
                                alignment=str(alignment), samples=5)
    assert code == 1 and doc["unsupported_reason"] == f"no bound available: {reason}"


def test_flagged_block_gets_one_reason(tmp_path):
    # `bound` and `validate` name a fast-math flag with the same text
    flagged = tmp_path / "flagged.ll"
    flagged.write_text(Path(NON_FMA).read_text().replace("fmul double", "fmul fast double"))
    reason = "fast-math flags present: %4"
    assert run_cmd_bound(str(flagged), FMA, "a=1,b=1,c=1") == (2, "", f"error: {reason}\n")
    code, doc, _ = run_validate(tmp_path, original=str(flagged), samples=5)
    assert code == 1 and doc["unsupported_reason"] == f"original: {reason}"


def test_bound_errors(tmp_path):
    unknown = tmp_path / "sqrt.ll"
    unknown.write_text(
        "define double @f(double %0) {\n"
        "  %2 = call double @llvm.sqrt.f64(double %0)\n"
        "  ret double %2\n"
        "}\n"
    )
    assert run_cmd_bound(str(unknown), str(unknown), "a=1.0")[0] == 2
    infinite = tmp_path / "inf.ll"
    infinite.write_text(
        "define double @f(double %0) {\n"
        "  %2 = fadd double %0, 0x7FF0000000000000\n"
        "  ret double %2\n"
        "}\n"
    )
    code, _, err = run_cmd_bound(str(infinite), str(infinite), "a=1.0")
    assert code == 2 and "non-finite literal" in err
    assert run_cmd_bound(NON_FMA, FMA, "a=-1.0,b=1.0,c=1.0")[0] == 2
    assert run_cmd_bound(NON_FMA, FMA, "a=inf,b=1.0,c=1.0")[0] == 2
    assert run_cmd_bound(NON_FMA, FMA, "a=1.0,b=1.0")[0] == 2
    assert run_cmd_bound(NON_FMA, FMA, "a=x,b=1,c=1") == (2, "", "error: cannot read magnitude 'x' as a number\n")


# ---------------------------------------------------------------------------
# validate


REPORT_KEYS = [
    "tool",
    "config",
    "verdict",
    "exit_code",
    "samples_run",
    "counts",
    "max_observed_diff",
    "worst_sample",
    "paper_formula_discrepancies",
    "paper_formula_examples",
    "counterexamples",
    "unsupported_reason",
    "stopped_early",
    "timing",
]


def test_validate_canonical_small(tmp_path):
    code, doc, summary = run_validate(tmp_path, samples=200, seed=1)
    assert code == 0
    assert doc["verdict"] == "pass" and doc["exit_code"] == 0
    assert list(doc) == REPORT_KEYS
    assert doc["tool"].startswith("fma-tv ")
    assert doc["samples_run"] == {"random": 200, "corpus": 4096, "total": 4296}
    assert doc["counts"]["pass"] == 4296
    assert doc["counts"]["fail"] == 0 and doc["counts"]["unsupported"] == 0
    assert doc["counterexamples"] == []
    assert not doc["stopped_early"]
    assert doc["timing"]["seconds"] >= 0
    # every pass verdict keeps the observed difference at or below the bound
    worst = doc["worst_sample"]
    assert float(worst["observed_diff"]["decimal"]) <= float(worst["bound_derived"]["decimal"])
    assert float(doc["max_observed_diff"]["decimal"]) == float(worst["observed_diff"]["decimal"])


def test_validate_no_corpus(tmp_path):
    code, doc, _ = run_validate(tmp_path, samples=50, include_special_corpus=False)
    assert code == 0
    assert doc["samples_run"] == {"random": 50, "corpus": 0, "total": 50}


def test_validate_fsub_mutant(tmp_path):
    mutant = tmp_path / "fsub.ll"
    mutant.write_text(Path(NON_FMA).read_text().replace("fadd", "fsub"))
    code, doc, summary = run_validate(tmp_path, original=str(mutant), samples=100)
    assert code == 1
    assert doc["verdict"] == "fail" and doc["exit_code"] == 1
    assert doc["counts"]["fail"] >= 1
    assert len(doc["counterexamples"]) == 16
    assert doc["stopped_early"]
    first = doc["counterexamples"][0]
    assert first["status"] == "fail"
    assert isinstance(first["index"], int)
    assert summary.startswith("FAIL: ")


def test_validate_renamed_intrinsic(tmp_path):
    mutant = tmp_path / "renamed.ll"
    mutant.write_text(Path(FMA).read_text().replace("fmuladd.f64", "fmuladd.f32"))
    code, doc, summary = run_validate(tmp_path, optimized=str(mutant), samples=100)
    assert code == 1
    assert doc["verdict"] == "unsupported"
    assert doc["unsupported_reason"] == "optimized: unsupported call to @llvm.fmuladd.f32"
    assert summary == (f"UNSUPPORTED: {doc['unsupported_reason']}; "
                       f"report written to {tmp_path / 'report.json'}\n")
    assert doc["samples_run"]["total"] == 0
    assert doc["counterexamples"][0]["index"] is None


def test_validate_strict_overflow_regime(tmp_path):
    report = tmp_path / "strict.json"
    code = main([
        "validate", "--original", NON_FMA, "--optimized", FMA,
        "--alignment", ALIGNMENT, "--samples", "100", "--exp-min", "900",
        "--exp-max", "1023", "--mode", "strict", "--no-special-corpus",
        "--report", str(report),
    ])
    doc = json.loads(report.read_text())
    assert code == 1
    assert doc["verdict"] == "fail"
    # every sample in this regime overflows, so the strict reading rejects
    # each one and the run stops at the counterexample cap
    assert doc["counts"]["fail"] == doc["samples_run"]["total"] == 16
    assert doc["stopped_early"]


def test_validate_lenient_overflow_regime(tmp_path):
    report = tmp_path / "lenient.json"
    code = main([
        "validate", "--original", NON_FMA, "--optimized", FMA,
        "--alignment", ALIGNMENT, "--samples", "100", "--exp-min", "900",
        "--exp-max", "1023", "--mode", "lenient", "--no-special-corpus",
        "--report", str(report),
    ])
    doc = json.loads(report.read_text())
    assert code == 0
    assert doc["counts"]["pass"] == 100
    assert doc["counts"]["vacuous_pass"] == 100


def test_validate_determinism(tmp_path):
    _, doc1, _ = run_validate(tmp_path, report_name="r1.json", samples=100, seed=3)
    _, doc2, _ = run_validate(tmp_path, report_name="r2.json", samples=100, seed=3)
    doc1.pop("timing")
    doc2.pop("timing")
    assert doc1 == doc2


def test_validate_core_is_pure(tmp_path):
    # the report cmd_validate writes is the core's, plus config and timing
    (original,) = parse_module(Path(NON_FMA).read_text())
    (optimized,) = parse_module(Path(FMA).read_text())
    checker = EquivChecker(original, optimized, load_alignment(Path(ALIGNMENT).read_text()))
    sampler = SamplerConfig(samples=100, seed=3)
    report = validate(checker, sampler, {"echo": True})
    assert report == validate(checker, sampler, {"echo": True})
    assert report.config == {"echo": True} and report.timing_seconds == 0.0
    assert report.exit_code == 0
    _, doc, _ = run_validate(tmp_path, samples=100, seed=3)
    core = report.to_json()
    for d in (core, doc):
        del d["config"], d["timing"]
    assert core == doc


def test_validate_summary_line(tmp_path):
    code, doc, summary = run_validate(tmp_path, samples=10, report_name="s.json")
    assert code == 0
    assert summary == (
        f"PASS: {doc['samples_run']['total']} checks, 0 failures, 0 unsupported; "
        f"report written to {tmp_path / 's.json'}\n"
    )


def test_validate_report_to_stdout():
    out, err = io.StringIO(), io.StringIO()
    code = cmd_validate(NON_FMA, FMA, ALIGNMENT, SamplerConfig(samples=5),
                        report_path=None, out=out, err=err)
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc["verdict"] == "pass"


def test_validate_missing_alignment(tmp_path):
    out, err = io.StringIO(), io.StringIO()
    code = cmd_validate(NON_FMA, FMA, str(tmp_path / "absent.json"),
                        SamplerConfig(samples=5), out=out, err=err)
    assert code == 2
    assert err.getvalue().startswith("error: ")


def test_validate_bad_alignment_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"pairs": [["%4"]]}')
    out, err = io.StringIO(), io.StringIO()
    code = cmd_validate(NON_FMA, FMA, str(bad), SamplerConfig(samples=5), out=out, err=err)
    assert code == 2
    bad.write_text('{"fresh_optimized": "%4"}')
    out, err = io.StringIO(), io.StringIO()
    code = cmd_validate(NON_FMA, FMA, str(bad), SamplerConfig(samples=5), out=out, err=err)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: fresh_optimized must be a list\n")
    bad.write_text('{"pairs": [["%4", "%5"]], "pairs": []}')
    out, err = io.StringIO(), io.StringIO()
    code = cmd_validate(NON_FMA, FMA, str(bad), SamplerConfig(samples=5), out=out, err=err)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: duplicate alignment key: pairs\n")


def test_validate_deeply_nested_alignment(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"pairs": ' + "[" * 1000 + "]" * 1000 + "}")
    out, err = io.StringIO(), io.StringIO()
    code = cmd_validate(NON_FMA, FMA, str(deep), SamplerConfig(samples=5), out=out, err=err)
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: alignment is not valid JSON: ")


def test_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FMA_TV_THREADS", "4")
    _, doc, _ = run_validate(tmp_path, report_name="t4.json", samples=5)
    assert doc["config"]["threads"] == 1


def test_bench_tracer_finds_every_hook():
    # a hook target that no longer exists makes the traced benchmark read 0 for its layer
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer().install() as tracer:
        assert tracer.missing == []


def test_bench_tracer_sees_every_bound_evaluation():
    # the generated check calls each compiled bound, so the traced benchmark books every evaluation,
    # including the exact path of a published bound compiled, and cached, before the tracer was installed
    compile_paper_bound()
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    (original,) = parse_module(Path(NON_FMA).read_text())
    (optimized,) = parse_module(Path(FMA).read_text())
    sampler = SamplerConfig(samples=200, seed=3)
    with tracing.Tracer().install() as tracer:
        checker = EquivChecker(original, optimized, load_alignment(Path(ALIGNMENT).read_text()))
        report = validate(checker, sampler, {})
    names = ("error_model.derived_bound", "error_model.paper_bound", "error_model.exact_eval")
    derived_calls, paper_calls, exact_calls = (tracer.stat(name).calls for name in names)
    rng = random.Random(sampler.seed)
    inputs = [*corpus_tuples(3), *(sample_tuple(rng, 3, sampler) for _ in range(sampler.samples))]
    # the samples that reach the bounds, then the worst sample if its bounds are rebuilt after the loop
    reached = [tuple(map(abs, xs)) for xs in inputs if checker.check(xs, True) is not None]
    worst = inputs[report.worst_sample["index"]]
    if checker.check(worst, True) is None:
        reached.append(tuple(map(abs, worst)))
    assert derived_calls == paper_calls == len(reached)
    bounds = (checker._derived_eval, checker._paper_eval)
    assert 0 < sum(not all(m <= b._mag_limit for m in mags) for b in bounds for mags in reached) == exact_calls


def test_validate_calls_check_once_per_sample(monkeypatch):
    # the traced benchmark run reconciles its count of `check` calls with the report
    calls = []
    check = EquivChecker.check
    monkeypatch.setattr(EquivChecker, "check", lambda self, args, *rest: calls.append(args) or check(self, args, *rest))
    (original,) = parse_module(Path(NON_FMA).read_text())
    (optimized,) = parse_module(Path(FMA).read_text())
    checker = EquivChecker(original, optimized, load_alignment(Path(ALIGNMENT).read_text()))
    report = validate(checker, SamplerConfig(samples=100, seed=3), {})
    assert len(calls) == report.samples_run["total"] == 100 + 16**3


def test_validate_rebuilds_a_worst_sample_that_exited_early(monkeypatch):
    # a block against itself differs by 0.0 wherever it differs finitely, so the worst sample is the
    # first, which exits before its bounds; validate rebuilds them without another `check` call
    (original,) = parse_module(Path(NON_FMA).read_text())
    checker = EquivChecker(original, original, AlignmentSpec())
    calls = []
    check = EquivChecker.check
    monkeypatch.setattr(EquivChecker, "check", lambda self, args, *rest: calls.append(args) or check(self, args, *rest))
    sampler = SamplerConfig(samples=50, seed=5)
    report = validate(checker, sampler, {})
    assert len(calls) == report.samples_run["total"] == 50 + 16**3
    first = corpus_tuples(3)[0]
    assert check(checker, first, True) is None
    want = checker.check_reference(first)
    assert None not in (want.bound_derived, want.bound_paper)
    assert report.max_observed_diff == 0.0
    assert report.worst_sample == {
        "index": 0,
        "args": [dual_of(x) for x in first],
        "observed_diff": dual_of(0.0),
        "bound_derived": dual_of(want.bound_derived),
        "bound_paper": dual_of(want.bound_paper),
    }
    assert report == reference_report(checker, sampler, {})


def reference_report(checker, sampler, config):
    """`validate` as a plain loop over `check_reference` and `sample_tuple`: the report to keep."""
    counts = dict.fromkeys(("pass", "fail", "unsupported", "vacuous_pass", "poison_pass", "nonzero_diff"), 0)
    if checker.static_unsupported is not None:
        verdict = checker.check_reference(())
        return Report(config, verdict="unsupported", counts=counts,
                      counterexamples=[{"index": None, **verdict.to_json()}],
                      unsupported_reason=checker.static_unsupported)
    n = len(checker.params)
    corpus = corpus_tuples(n) if sampler.include_special_corpus else []
    rng = random.Random(sampler.seed)
    inputs = itertools.chain(corpus, (sample_tuple(rng, n, sampler) for _ in range(sampler.samples)))
    report = Report(config, counts=counts)
    total = 0
    for index, raw in enumerate(inputs):
        total += 1
        v = checker.check_reference(raw)
        counts[v.status.value] += 1
        if v.status is Status.PASS:
            counts["vacuous_pass"] += v.vacuous
            counts["poison_pass"] += v.poison_result
        if v.observed_diff is not None and math.isfinite(v.observed_diff):
            counts["nonzero_diff"] += v.observed_diff > 0.0
            if report.max_observed_diff is None or v.observed_diff > report.max_observed_diff:
                report.max_observed_diff = v.observed_diff
                report.worst_sample = {
                    "index": index,
                    "args": [dual_of(x) for x in raw],
                    "observed_diff": dual_of(v.observed_diff),
                    "bound_derived": dual_of(v.bound_derived),
                    "bound_paper": dual_of(v.bound_paper),
                }
        if v.paper_disagrees:
            report.paper_formula_discrepancies += 1
            if len(report.paper_formula_examples) < 16:
                report.paper_formula_examples.append({"index": index, **v.to_json()})
        if v.status is not Status.PASS:
            report.counterexamples.append({"index": index, **v.to_json()})
            if len(report.counterexamples) == 16:
                report.stopped_early = True
                break
    n_corpus = min(total, len(corpus))
    report.samples_run = {"random": total - n_corpus, "corpus": n_corpus, "total": total}
    report.verdict = "fail" if counts["fail"] else "unsupported" if counts["unsupported"] else "pass"
    return report


CONFIGS = tuple(RefinementConfig(mode=m, bound_source=b) for m in Mode for b in BoundSource)
EXP_RANGES = ((-50, 50), (-1074, 1023), (-1074, -1000), (900, 1023), (0, 63))
CANONICAL_PAIR = (parse_module(Path(FMA).read_text())[0], parse_module(Path(NON_FMA).read_text())[0],
                  load_alignment(Path(ALIGNMENT).read_text()))
# random pairs are mostly unsupported or fail; a block against itself passes, and the canonical pair
# passes with nonzero differences
PAIRS = st.one_of(block_pairs(), function_defs().map(lambda f: (f, f, AlignmentSpec())), st.just(CANONICAL_PAIR))


@settings(max_examples=60, deadline=None)
@given(PAIRS, st.sampled_from(CONFIGS), st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=1, max_value=40), st.sampled_from(EXP_RANGES), st.booleans())
def test_validate_matches_a_reference_loop(pair, cfg, seed, samples, exp_range, corpus):
    opt, orig, align = pair
    checker = EquivChecker(orig, opt, align, cfg)
    sampler = SamplerConfig(samples, seed, *exp_range, include_special_corpus=corpus)
    assert validate(checker, sampler, {}) == reference_report(checker, sampler, {})


# the fsub mutant fails at once; `fmuladd(%2, %1, %0)` against `%2*%1 + %0`
# (roles permuted) often exceeds the published formula, which reads magnitudes
# in parameter order
FSUB_ORIGINAL = parse_module(Path(NON_FMA).read_text().replace("fadd", "fsub"))[0]
PERMUTED_ORIGINAL = parse_module(
    Path(NON_FMA).read_text().replace("%0, %1", "%2, %1").replace("%4, %2", "%4, %0"))[0]
PERMUTED_OPTIMIZED = parse_module(Path(FMA).read_text().replace(
    "(double %0, double %1, double %2)\n", "(double %2, double %1, double %0)\n"))[0]


@pytest.mark.parametrize("corpus", [True, False], ids=["corpus", "no-corpus"])
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.mode.value}-{c.bound_source.value}")
def test_validate_matches_a_reference_loop_at_the_caps(cfg, corpus):
    fma, _, align = CANONICAL_PAIR
    mutant = EquivChecker(FSUB_ORIGINAL, fma, align, cfg)
    permuted = EquivChecker(PERMUTED_ORIGINAL, PERMUTED_OPTIMIZED, align, cfg)
    sampler = SamplerConfig(samples=1500, seed=11, include_special_corpus=corpus)
    reports = []
    for checker in (mutant, permuted):
        report = validate(checker, sampler, {})
        assert report == reference_report(checker, sampler, {})
        reports.append(report)
    if cfg.bound_source is not BoundSource.DERIVED:
        assert reports[0].stopped_early and len(reports[0].counterexamples) == 16
    # strict mode stops the permuted pair at the corpus's first overflow
    if cfg == RefinementConfig():
        assert len(reports[1].paper_formula_examples) == 16 < reports[1].paper_formula_discrepancies


# validate streams the corpus: the same counts as the list, and less memory

ONE_PARAM = parse_module("define double @f(double %0) {\n  %2 = fadd double %0, %0\n  ret double %2\n}\n")[0]
CORPUS_CASES = {  # parameter count: (optimized, original, alignment)
    1: (ONE_PARAM, ONE_PARAM, AlignmentSpec()),
    3: CANONICAL_PAIR,
    4: dot_blocks(2),
    16: dot_blocks(8),
}


@pytest.mark.parametrize("n", CORPUS_CASES)
def test_streamed_corpus_counts_as_the_list(n):
    opt, orig, align = CORPUS_CASES[n]
    checker = EquivChecker(orig, opt, align)
    report = validate(checker, SamplerConfig(samples=3, seed=2), {})
    assert report.samples_run == {"random": 3, "corpus": len(corpus_tuples(n)), "total": len(corpus_tuples(n)) + 3}
    assert len(corpus_tuples(n)) == min(16**n, 10_000)


def test_streamed_corpus_counts_a_run_stopped_inside_it():
    fma, _, align = CANONICAL_PAIR
    checker = EquivChecker(FSUB_ORIGINAL, fma, align)
    sampler = SamplerConfig(samples=50, seed=2)
    report = validate(checker, sampler, {})
    assert report.stopped_early
    total = report.counterexamples[-1]["index"] + 1
    assert report.samples_run == {"random": 0, "corpus": total, "total": total} == reference_report(
        checker, sampler, {}).samples_run
    assert total < len(corpus_tuples(3))


def test_validate_holds_no_corpus_list():
    # the 10^4 16-tuples of the dot8 corpus as a list take about 1.6 MB; the
    # peak here, the exact-path memo included, is about 0.4 MB
    opt, orig, align = CORPUS_CASES[16]
    checker = EquivChecker(orig, opt, align)
    tracemalloc.start()
    try:
        validate(checker, SamplerConfig(samples=1, seed=2), {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# each distinct exact-path magnitude tuple that reaches a bound is computed once per bound


# per_bound names the compiled bounds of the pair
@pytest.mark.parametrize("case, per_bound", [
    ("canonical", ["_derived_eval", "_paper_eval"]),
    ("dot8", ["_derived_eval"]),
])
def test_validate_computes_each_exact_path_tuple_once(case, per_bound):
    opt, orig, align = CANONICAL_PAIR if case == "canonical" else CORPUS_CASES[16]
    checker = EquivChecker(orig, opt, align)
    bounds = [getattr(checker, name) for name in per_bound]
    assert bounds == [b for b in (checker._derived_eval, checker._paper_eval) if b is not None]
    sampler = SamplerConfig(samples=1, seed=0)
    n = len(checker.params)
    rng = random.Random(sampler.seed)
    # a sample reaches the bounds only if a compared difference is not 0.0; both pairs align only
    # their returns and leave every other local fresh, so the return's difference decides
    reached = [tuple(map(abs, xs))
               for xs in itertools.chain(corpus_tuples(n), (sample_tuple(rng, n, sampler),))
               if checker.check_reference(xs).observed_diff != 0.0]
    for bound in bounds:
        bound._exact.cache_clear()  # the published bound is compiled once per process
    validate(checker, sampler, {})
    for bound in bounds:
        exact = [mags for mags in reached if not all(m <= bound._mag_limit for m in mags)]
        info = bound._exact.cache_info()
        assert 0 < info.misses == len(set(exact))
        assert info.hits + info.misses == len(exact)


@pytest.mark.parametrize("report", ["", "missing/report.json"], ids=["directory", "missing-parent"])
def test_validate_unwritable_report_fails_before_checking(tmp_path, monkeypatch, report):
    calls = []
    monkeypatch.setattr(EquivChecker, "check", lambda self, args: calls.append(args))
    out, err = io.StringIO(), io.StringIO()
    code = cmd_validate(NON_FMA, FMA, ALIGNMENT, SamplerConfig(samples=5),
                        report_path=str(tmp_path / report), out=out, err=err)
    assert code == 2
    assert err.getvalue().startswith("error: ")
    assert calls == []
    assert out.getvalue() == ""
    assert not (tmp_path / "missing").exists()


class _FullDisk(io.StringIO):
    """A report file on a full disk: `write` or `close` raises ENOSPC."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def close(self):
        if self.failing == "close":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        super().close()


@pytest.mark.parametrize("failing", ["write", "close"])
def test_validate_report_that_cannot_be_written_exits_2(monkeypatch, failing):
    real_open = open
    monkeypatch.setattr(fma_tv.cli, "open", lambda path, *a, **k: (
        _FullDisk(failing) if path == "report.json" else real_open(path, *a, **k)), raising=False)
    out, err = io.StringIO(), io.StringIO()
    code = cmd_validate(NON_FMA, FMA, ALIGNMENT, SamplerConfig(samples=5),
                        report_path="report.json", out=out, err=err)
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


# ---------------------------------------------------------------------------
# report bytes
#
# sha256 of each report without `timing` and `config`, 2,000 samples each;
# a later flag overrides the canonical one.  A change that alters a report
# on purpose updates its digest here.

PINNED_REPORTS = {  # variant: (arguments after the canonical ones, digest)
    "canonical": (
        [],
        "365b51ae453d26d24cc34efd06157b3735bc0ea4649e993ea556d35c7e95b675",
    ),
    "fsub": (
        ["--original", "{fsub}"],
        "4546d36784b14b6d0370cbc2a62e5528646af0d1753f4f22fb81d016d31561da",
    ),
    "f32": (
        ["--optimized", "{f32}"],
        "a1bfff8e9e18934790f7b1fad16d9fc36b99e33d12b5489c34f0b86ebaa92768",
    ),
    "permuted": (
        ["--alignment", "{permuted}"],
        "194cfa42c108167d8b9f235aa4e9aa9f00eb1a3c8ae65ca5a6c55dd5d966889a",
    ),
    "paper": (
        ["--bound", "paper"],
        "6d44ab64a67083c82e47fce411225c7fdae61f371457097c9f6e5ff657d2ed3c",
    ),
    "strict-overflow": (
        ["--mode", "strict", "--exp-min", "900", "--exp-max", "1023"],
        "f18e5fb687b4999651c421f78e525e5cd94a623e37269904ccaaea34ff8c1edb",
    ),
    "full-range": (
        ["--exp-min", "-1074", "--exp-max", "1023"],
        "fd5a14fe59978b44e473381638aff575a6b40b31da6b7cca6a970de1d2affcdb",
    ),
}


def write_mutants(work):
    """The fsub original, the f32 intrinsic and the permuted alignment of the canonical pair."""
    paths = {name: work / name for name in ("fsub.ll", "f32.ll", "permuted.json")}
    paths["fsub.ll"].write_text(Path(NON_FMA).read_text().replace("fadd", "fsub"))
    paths["f32.ll"].write_text(Path(FMA).read_text().replace("fmuladd.f64", "fmuladd.f32"))
    paths["permuted.json"].write_text(json.dumps({
        "pairs": [["%5", "%4"]],
        "fresh_optimized": ["%4", "%5"],
        "fresh_original": ["%4", "%5"],
    }) + "\n")
    return {name.split(".")[0]: str(path) for name, path in paths.items()}


def pinned_report_digest(tmp_path, extra):
    mutants = write_mutants(tmp_path)
    report = tmp_path / "report.json"
    main(["validate", "--original", NON_FMA, "--optimized", FMA, "--alignment", ALIGNMENT,
          "--samples", "2000", *(arg.format(**mutants) for arg in extra),
          "--report", str(report)])
    doc = json.loads(report.read_text())
    del doc["timing"], doc["config"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("variant", PINNED_REPORTS)
def test_report_bytes_are_pinned(tmp_path, capsys, variant):
    extra, digest = PINNED_REPORTS[variant]
    assert pinned_report_digest(tmp_path, extra) == digest


# ---------------------------------------------------------------------------
# expressions past the error model's limits


def chain_block(n, doubling):
    """%t{i} = fadd of %t{i-1} with %b (a chain of depth n), or with itself (2^n nodes)."""
    rhs = "%t{}" if doubling else "%b"
    lines = ["define double @f(double %a, double %b) {", "  %t0 = fadd double %a, %b"]
    lines += [f"  %t{i} = fadd double %t{i - 1}, {rhs.format(i - 1)}" for i in range(1, n)]
    return "\n".join(lines + [f"  ret double %t{n - 1}", "}"]) + "\n"


def run_chain(tmp_path, n, doubling):
    """`bound` and `validate --bound derived` on the chain paired with itself."""
    block = tmp_path / "chain.ll"
    block.write_text(chain_block(n, doubling))
    alignment = tmp_path / "empty.json"
    alignment.write_text("{}")
    started = time.perf_counter()
    bound = run_cmd_bound(str(block), str(block), "a=1.0,b=1.0")
    report = tmp_path / "report.json"
    code = main(["validate", "--original", str(block), "--optimized", str(block),
                 "--alignment", str(alignment), "--bound", "derived", "--samples", "10",
                 "--no-special-corpus", "--report", str(report)])
    return bound, code, json.loads(report.read_text()), time.perf_counter() - started


@pytest.mark.parametrize("n, doubling, reason", [(450, False, "nests 450 operations"),
                                                 (18, True, "has 524287 nodes")],
                         ids=["deep", "doubling"])
def test_expression_past_limits_is_refused_with_a_reason(tmp_path, capsys, n, doubling, reason):
    (code, out, err), v_code, doc, elapsed = run_chain(tmp_path, n, doubling)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err
    assert v_code == 1
    assert doc["verdict"] == "unsupported"
    assert reason in doc["unsupported_reason"]
    assert elapsed < 2.0


def test_expression_within_limits_gets_its_bound(tmp_path, capsys):
    (code, out, _), v_code, doc, _ = run_chain(tmp_path, 300, False)
    assert code == 0 and out.startswith("derived bound:")
    assert v_code == 0
    assert doc["verdict"] == "pass"
    assert doc["counts"]["pass"] == 10


# ---------------------------------------------------------------------------
# argparse wiring


def test_main_validate_bad_samples(capsys):
    code = main([
        "validate", "--original", NON_FMA, "--optimized", FMA,
        "--alignment", ALIGNMENT, "--samples", "0",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_main_validate_negative_seed(capsys):
    code = main([
        "validate", "--original", NON_FMA, "--optimized", FMA,
        "--alignment", ALIGNMENT, "--samples", "10", "--seed", "-7",
    ])
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_validate_samples_without_boxing(tmp_path, monkeypatch):
    """The sampled path hands raw floats to the check: no `Double` is built."""
    built = []

    class CountedDouble(Double):
        __slots__ = ()

        def __init__(self, v):
            built.append(v)
            super().__init__(v)

    monkeypatch.setattr(fma_tv.cli, "Double", CountedDouble)
    monkeypatch.setattr(fma_tv.refinement, "Double", CountedDouble)
    code, doc, _ = run_validate(tmp_path, samples=2000, seed=3)
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["samples_run"]["total"] == 2000 + 16**3
    assert built == []
    # the counter is live: the reference path boxes
    checker = EquivChecker(parse_module(Path(NON_FMA).read_text())[0],
                           parse_module(Path(FMA).read_text())[0], load_alignment(Path(ALIGNMENT).read_text()))
    checker.check_reference((1.0, 2.0, 3.0))
    assert built == [1.0, 2.0, 3.0]


def test_validate_defaults_are_the_config_defaults():
    args = _build_parser().parse_args(
        ["validate", "--original", NON_FMA, "--optimized", FMA, "--alignment", ALIGNMENT]
    )
    assert SamplerConfig(args.samples, args.seed, args.exp_min, args.exp_max,
                         not args.no_special_corpus) == SamplerConfig()
    assert RefinementConfig(Mode(args.mode), BoundSource(args.bound)) == RefinementConfig()


def test_main_requires_command():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_main_run_and_bound(capsys):
    assert main(["run", "--block", FMA, "--inputs", "a=1.0,b=1.0,c=0.0"]) == 0
    assert "Ret 0x3FF0000000000000 (1.0)" in capsys.readouterr().out
    assert main(["bound", "--original", NON_FMA, "--optimized", FMA,
                 "--mags", "a=1.0,b=1.0,c=1.0"]) == 0
    assert "derived bound:" in capsys.readouterr().out


def test_module_entry_point():
    # the child imports the same package this process imported
    src = str(Path(fma_tv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "fma_tv", "bound", "--original", NON_FMA,
         "--optimized", FMA, "--mags", "a=1,b=1,c=1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("derived bound:")


def test_cli_import_does_not_load_ctypes():
    # the fma needs no libm, so nothing may reach for ctypes to load one
    src = str(Path(fma_tv.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import fma_tv.cli, sys; print('ctypes' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


def test_report_default_shape():
    doc = Report(config={}).to_json()
    assert list(doc) == REPORT_KEYS
    assert doc["samples_run"] == {"random": 0, "corpus": 0, "total": 0}
