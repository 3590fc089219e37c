"""The benchmark's workloads: block pairs, validate arguments, reference results.

Each workload is one `fma_tv validate` invocation.  The `reference` of a
workload recomputes both blocks' returned values from the workload's own
definition with the exact-rational oracles in `tests/oracles.py`, so the
output check does not depend on the parser or interpreter under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracles import oracle_add, oracle_fma, oracle_mul

CANONICAL_ORIGINAL = "testdata/non_fma.ll"
CANONICAL_OPTIMIZED = "testdata/fma.ll"
CANONICAL_ALIGNMENT = "testdata/alignment.json"

DOT_TERMS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    original: str
    optimized: str
    alignment: str
    exp_min: int
    exp_max: int
    # random samples per validate run, on top of the special corpus; sized so
    # one fresh-process run takes a few seconds on a 2-core box
    samples: int
    corpus: int
    reference: Callable[[tuple[float, ...]], tuple[float, float]]

    def validate_args(self, seed: int, report: str) -> list[str]:
        """Arguments after `python -m fma_tv`; the cli defaults are spelled out."""
        return [
            "validate",
            "--original", self.original,
            "--optimized", self.optimized,
            "--alignment", self.alignment,
            "--samples", str(self.samples),
            "--seed", str(seed),
            "--exp-min", str(self.exp_min),
            "--exp-max", str(self.exp_max),
            "--mode", "lenient",
            "--bound", "both",
            "--report", report,
        ]


def canonical_reference(x: tuple[float, ...]) -> tuple[float, float]:
    """(original, optimized) returns of `a*b + c` versus `fma(a, b, c)`."""
    a, b, c = x
    return oracle_add(oracle_mul(a, b), c), oracle_fma(a, b, c)


def dot_reference(x: tuple[float, ...]) -> tuple[float, float]:
    """(original, optimized) returns of the dot product over pairs (x[2i], x[2i+1])."""
    orig = opt = oracle_mul(x[0], x[1])
    for i in range(1, len(x) // 2):
        orig = oracle_add(orig, oracle_mul(x[2 * i], x[2 * i + 1]))
        opt = oracle_fma(x[2 * i], x[2 * i + 1], opt)
    return orig, opt


def write_dot(work: Path, terms: int = DOT_TERMS) -> tuple[str, str, str]:
    """Write the dot-product pair and its alignment; return their paths.

    The original multiplies every pair and sums left to right (`terms` fmul,
    `terms - 1` fadd); the optimized block keeps the first fmul and chains
    the rest through `llvm.fmuladd.f64`, as LLVM's contraction does.  Only
    the returned ids are paired; every intermediate is fresh.  Local ids
    follow LLVM numbering: params first, then the entry block label.
    """
    n_params = 2 * terms
    header = "define noundef double @dot({}) {{\n".format(
        ", ".join(f"double noundef %{i}" for i in range(n_params))
    )
    first = n_params + 1

    orig = [header, f"  %{first} = fmul double %0, %1\n"]
    acc, nxt = first, first + 1
    for i in range(1, terms):
        orig.append(f"  %{nxt} = fmul double %{2 * i}, %{2 * i + 1}\n")
        orig.append(f"  %{nxt + 1} = fadd double %{acc}, %{nxt}\n")
        acc, nxt = nxt + 1, nxt + 2
    orig.append(f"  ret double %{acc}\n}}\n")
    orig_ret = acc

    opt = [header, f"  %{first} = fmul double %0, %1\n"]
    acc = first
    for i in range(1, terms):
        opt.append(
            f"  %{acc + 1} = tail call double @llvm.fmuladd.f64("
            f"double %{2 * i}, double %{2 * i + 1}, double %{acc})\n"
        )
        acc += 1
    opt.append(f"  ret double %{acc}\n}}\n\ndeclare double @llvm.fmuladd.f64(double, double, double)\n")

    alignment = {
        "pairs": [[f"%{acc}", f"%{orig_ret}"]],
        "fresh_optimized": [f"%{i}" for i in range(first, acc + 1)],
        "fresh_original": [f"%{i}" for i in range(first, orig_ret + 1)],
    }
    paths = (work / "dot_original.ll", work / "dot_optimized.ll", work / "dot_alignment.json")
    paths[0].write_text("".join(orig))
    paths[1].write_text("".join(opt))
    paths[2].write_text(json.dumps(alignment) + "\n")
    return tuple(str(p) for p in paths)


def write_mutants(work: Path) -> tuple[str, str, str]:
    """The three mutants of the canonical pair: fsub original, f32 intrinsic, permuted alignment."""
    fsub = work / "mutant_fsub.ll"
    fsub.write_text(Path(CANONICAL_ORIGINAL).read_text().replace("fadd", "fsub"))
    renamed = work / "mutant_f32.ll"
    renamed.write_text(Path(CANONICAL_OPTIMIZED).read_text().replace("fmuladd.f64", "fmuladd.f32"))
    permuted = work / "mutant_alignment.json"
    permuted.write_text(json.dumps({
        "pairs": [["%5", "%4"]],
        "fresh_optimized": ["%4", "%5"],
        "fresh_original": ["%4", "%5"],
    }) + "\n")
    return str(fsub), str(renamed), str(permuted)


def make_workloads(work: Path) -> dict[str, Workload]:
    """All workloads; writes the generated dot-product pair into `work`."""
    dot_orig, dot_opt, dot_align = write_dot(work)
    canonical = dict(
        original=CANONICAL_ORIGINAL,
        optimized=CANONICAL_OPTIMIZED,
        alignment=CANONICAL_ALIGNMENT,
        corpus=16**3,
        reference=canonical_reference,
    )
    return {
        "canonical": Workload("canonical", exp_min=-50, exp_max=50,
                              samples=5_000, **canonical),
        "full_range": Workload("full_range", exp_min=-1074, exp_max=1023,
                               samples=2_000, **canonical),
        "dot8": Workload("dot8", dot_orig, dot_opt, dot_align,
                         exp_min=-50, exp_max=50, samples=1_000, corpus=10_000,
                         reference=dot_reference),
    }
