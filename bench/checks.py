"""Correctness checks the benchmark applies to the program's outputs.

Every check returns a list of failure messages; an empty list is a pass.
The known answers come from the acceptance criteria (verdicts, mutants);
the numeric references come from `tests/oracles.py` and the exact
`derive_bound`, never from the compiled evaluators the timed path uses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from fma_tv import cli
from fma_tv._bits import float_from_hex
from fma_tv.denotation import GlobalEnv, LocalEnv, interp_cfg2
from fma_tv.error_model import derive_bound, eval_bound
from fma_tv.fp_semantics import Double
from fma_tv.ir_core import parse_module
from fma_tv.refinement import recover_expr
from oracles import oracle_sub, same_float

from workloads import CANONICAL_ALIGNMENT, CANONICAL_OPTIMIZED, CANONICAL_ORIGINAL, write_mutants

# criterion 6: 10^4 requested samples plus the 4096-entry corpus
MUTANT_SAMPLES = 10_000
MUTANT_BUDGET = MUTANT_SAMPLES + 16**3
ORACLE_RANDOM = 256
ORACLE_CORPUS = 64


def report_digest(doc: dict) -> str:
    """SHA-256 of the report with `timing` removed."""
    rest = {k: v for k, v in doc.items() if k != "timing"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()


def known_answer(wl, doc: dict, exit_code: int | None) -> list[str]:
    """A workload run must pass every check it made, and make all of them."""
    counts = doc.get("counts", {})
    expected_total = wl.samples + wl.corpus
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if doc.get("verdict") != "pass":
        problems.append(f"verdict {doc.get('verdict')!r}, expected 'pass'")
    if counts.get("fail") != 0 or counts.get("unsupported") != 0:
        problems.append(f"fail={counts.get('fail')} unsupported={counts.get('unsupported')}, expected 0")
    if doc.get("samples_run", {}).get("total") != expected_total:
        problems.append(f"{doc.get('samples_run')} checks, expected {expected_total}")
    return problems


def _validate_in_process(args: list[str], report: Path) -> tuple[int, dict]:
    report.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args + ["--report", str(report)])
    doc = json.loads(report.read_text()) if report.exists() else {}
    return code, {"verdict": None, "counterexamples": [], "unsupported_reason": None, **doc}


def mutants(work: Path, seed: int) -> list[str]:
    """The three criterion-6 mutants of the canonical pair must be killed."""
    fsub, renamed, permuted = write_mutants(work)
    report = work / "mutant_report.json"
    base = ["validate", "--samples", str(MUTANT_SAMPLES), "--seed", str(seed)]
    problems = []

    code, doc = _validate_in_process(
        base + ["--original", fsub, "--optimized", CANONICAL_OPTIMIZED, "--alignment", CANONICAL_ALIGNMENT],
        report,
    )
    indices = [ce["index"] for ce in doc["counterexamples"] if isinstance(ce.get("index"), int)]
    if code != 1 or doc["verdict"] != "fail" or not indices or min(indices) >= MUTANT_BUDGET:
        problems.append(f"fsub mutant: exit {code}, verdict {doc['verdict']}, indices {indices[:3]}")

    code, doc = _validate_in_process(
        base + ["--original", CANONICAL_ORIGINAL, "--optimized", renamed, "--alignment", CANONICAL_ALIGNMENT],
        report,
    )
    if code != 1 or doc["verdict"] != "unsupported" or "llvm.fmuladd.f32" not in (doc["unsupported_reason"] or ""):
        problems.append(f"f32 mutant: exit {code}, verdict {doc['verdict']}, reason {doc['unsupported_reason']!r}")

    code, doc = _validate_in_process(
        base + ["--original", CANONICAL_ORIGINAL, "--optimized", CANONICAL_OPTIMIZED, "--alignment", permuted],
        report,
    )
    first = doc["counterexamples"][0]["index"] if doc["counterexamples"] else None
    if code != 1 or doc["verdict"] != "fail" or first != 0:
        problems.append(f"permuted alignment: exit {code}, verdict {doc['verdict']}, first index {first}")
    return problems


def _single(path: str):
    (f,) = parse_module(Path(path).read_text())
    return f


def oracle_inputs(wl, seed: int) -> list[tuple[float, ...]]:
    """Evenly spaced corpus entries plus the head of the seeded random stream."""
    original = _single(wl.original)
    n_params = len(original.params)
    corpus = cli.corpus_tuples(n_params)
    step = max(1, len(corpus) // ORACLE_CORPUS)
    sampler = cli.SamplerConfig(samples=wl.samples, seed=seed, exp_min=wl.exp_min, exp_max=wl.exp_max)
    rng = random.Random(seed)
    return corpus[::step] + [cli.sample_tuple(rng, n_params, sampler) for _ in range(ORACLE_RANDOM)]


def oracle_results(wl, seed: int) -> tuple[int, list[str]]:
    """Both blocks' returns under `interp_cfg2` must equal the oracle's, bit for bit."""
    original, optimized = _single(wl.original), _single(wl.optimized)
    inputs = oracle_inputs(wl, seed)
    problems = []
    for x in inputs:
        args = tuple(Double(v) for v in x)
        want = wl.reference(x)
        got = tuple(
            interp_cfg2(f, GlobalEnv.empty(), LocalEnv.empty(), args)[0].result.v
            for f in (original, optimized)
        )
        if not all(same_float(g, w) for g, w in zip(got, want)):
            problems.append(f"oracle mismatch at {x}: interp {got}, oracle {want}")
    return len(inputs), problems


def worst_sample(wl, doc: dict) -> list[str]:
    """The worst sample's difference is the oracle's and lies within the exact bound."""
    ws = doc.get("worst_sample")
    if ws is None:
        return ["report has no worst_sample"]
    x = tuple(float_from_hex(a["hex"]) for a in ws["args"])
    observed = float_from_hex(ws["observed_diff"]["hex"])
    ref_orig, ref_opt = wl.reference(x)
    recomputed = abs(oracle_sub(ref_opt, ref_orig))
    original, optimized = _single(wl.original), _single(wl.optimized)
    mags = {str(p): abs(v) for p, v in zip(original.params, x)}
    bound = eval_bound(derive_bound(recover_expr(original), recover_expr(optimized), mags))
    problems = []
    if not same_float(recomputed, observed):
        problems.append(f"worst sample {ws['index']}: observed {observed!r}, oracle {recomputed!r}")
    if not observed <= bound:
        problems.append(f"worst sample {ws['index']}: observed {observed!r} above exact bound {bound!r}")
    return problems
