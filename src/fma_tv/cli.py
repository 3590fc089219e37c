"""Command-line driver: sampled validation, single runs, bound queries.

Three subcommands.  `validate` samples a block pair over a deterministic
input stream and reports whether the refinement held everywhere; `run`
denotes one block on given inputs and prints its trace; `bound` prints the
error bounds for a pair without running it.

Exit codes: 0 means every check passed; 1 means a verdict other than pass
was produced (a concrete failure, or an unsupported construct); 2 means no
verdict was produced at all (unreadable files, parse or configuration
errors).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import json
import math
import random
import sys
import time
from collections.abc import Callable, Iterator

from . import __version__
from ._bits import Record, dual_of, float_from_hex, hex_of
from .denotation import EvalError, GlobalEnv, LocalEnv, interp_cfg2, strip_taus, value_to_str
from .error_model import (
    DELTA_EXP,
    ETA_EXP,
    derive_bound,
    epsilon_fma_paper,
    eval_bound,
    fma_roles,
)
from .fp_semantics import (
    MAX_FINITE,
    MAX_SUBNORMAL,
    MIN_NORMAL,
    MIN_SUBNORMAL,
    Double,
    Poison,
    Value,
    compile_function,
    is_finite,
    round_rational_up,
)
from .ir_core import FunctionDef, ParseError, WellformednessError, check_wellformed, parse_module
from .refinement import (
    AlignmentError,
    BoundSource,
    EquivChecker,
    Mode,
    RefinementConfig,
    Status,
    load_alignment,
    recover_expr,
)

_MAX_COUNTEREXAMPLES = 16
_MAX_CORPUS_COMBINATIONS = 10_000


# ---------------------------------------------------------------------------
# Sampling


class SamplerConfig(Record):
    """Deterministic input generation for `validate`."""

    __slots__ = ("samples", "seed", "exp_min", "exp_max", "include_special_corpus")

    def __init__(self, samples: int = 1_000_000, seed: int = 0, exp_min: int = -50, exp_max: int = 50,
                 include_special_corpus: bool = True):
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        if seed < 0:
            # random.Random seeds from |seed|, so -7 would replay the stream of 7
            raise ValueError(f"seed must be >= 0, got {seed}")
        if not -1074 <= exp_min <= exp_max <= 1023:
            raise ValueError(
                f"exponent range must satisfy -1074 <= min <= max <= 1023, "
                f"got [{exp_min}, {exp_max}]"
            )
        super().__init__(samples, seed, exp_min, exp_max, include_special_corpus)


def special_values() -> tuple[float, ...]:
    """Edge-of-format values crossed into a corpus before random sampling."""
    one_up = math.nextafter(1.0, math.inf)
    one_down = math.nextafter(1.0, -math.inf)
    vals = (
        0.0,
        -0.0,
        MIN_SUBNORMAL,
        -MIN_SUBNORMAL,
        MAX_SUBNORMAL,
        -MAX_SUBNORMAL,
        MIN_NORMAL,
        -MIN_NORMAL,
        one_down,
        -one_down,
        1.0,
        -1.0,
        one_up,
        -one_up,
        MAX_FINITE,
        -MAX_FINITE,
    )
    return vals


def corpus_tuples(n_params: int) -> list[tuple[float, ...]]:
    """Cross product of the special corpus, capped at 10^4 combinations."""
    return list(_corpus(n_params))


def _corpus(n_params: int) -> Iterator[tuple[float, ...]]:
    """The corpus, drawn lazily: `validate` streams it rather than holding the list."""
    return itertools.islice(itertools.product(special_values(), repeat=n_params), _MAX_CORPUS_COMBINATIONS)


def sample_tuple(rng: random.Random, n_params: int, cfg: SamplerConfig) -> tuple[float, ...]:
    """One pseudo-random input tuple: `compile_draw`'s draw, built once per parameter count and sampler config."""
    return compile_draw(n_params, cfg)(rng)


@functools.lru_cache(maxsize=32)
def compile_draw(n_params: int, cfg: SamplerConfig) -> Callable[[random.Random], tuple[float, ...]]:
    """The sampler for `n_params` and `cfg`'s exponent range: one generated function of `rng`.

    Per parameter, `getrandbits(1)` for the sign, the exponent as `rng.randint` draws it
    (`getrandbits(k)` with rejection) and `getrandbits(52)` for the mantissa.  The
    53-bit significand `2**52 + mantissa` is scaled by one `ldexp`, its only rounding
    (in the subnormal range), and the sign applied after, as rounding to nearest is symmetric."""
    width = cfg.exp_max - cfg.exp_min + 1
    k = width.bit_length()
    body = ["bits = rng.getrandbits"]
    for i in range(n_params):
        body += [
            f"s{i} = bits(1)",
            f"e = bits({k})",
            f"while e >= {width}:",
            f"    e = bits({k})",
            f"x{i} = ldexp(bits(52) + TWO52, e + {cfg.exp_min - 52})",
            f"if s{i}: x{i} = -x{i}",
        ]
    body.append(f"return ({''.join(f'x{i}, ' for i in range(n_params))})")
    return compile_function("draw", "rng", body, {"ldexp": math.ldexp, "TWO52": 2.0**52})


# ---------------------------------------------------------------------------
# Reporting


class Report(Record):
    """Outcome of one `validate` run; serialized as JSON.

    The one mutable record, filled in as a run goes: it may be assigned to,
    and so is not hashable.  A `samples_run`, `counts` or list left out
    starts empty (`samples_run` at zero counts).
    """

    __slots__ = (
        "config", "verdict", "samples_run", "counts", "max_observed_diff", "worst_sample",
        "paper_formula_discrepancies", "paper_formula_examples", "counterexamples",
        "unsupported_reason", "stopped_early", "timing_seconds",
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, config: dict, verdict: str = "pass", samples_run: dict | None = None, counts: dict | None = None,
                 max_observed_diff: float | None = None, worst_sample: dict | None = None,
                 paper_formula_discrepancies: int = 0, paper_formula_examples: list | None = None,
                 counterexamples: list | None = None, unsupported_reason: str | None = None,
                 stopped_early: bool = False, timing_seconds: float = 0.0):
        self.config = config
        self.verdict = verdict
        self.samples_run = {"random": 0, "corpus": 0, "total": 0} if samples_run is None else samples_run
        self.counts = {} if counts is None else counts
        self.max_observed_diff = max_observed_diff
        self.worst_sample = worst_sample
        self.paper_formula_discrepancies = paper_formula_discrepancies
        self.paper_formula_examples = [] if paper_formula_examples is None else paper_formula_examples
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.unsupported_reason = unsupported_reason
        self.stopped_early = stopped_early
        self.timing_seconds = timing_seconds

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict == "pass" else 1

    def to_json(self) -> dict:
        return {
            "tool": f"fma-tv {__version__}",
            "config": self.config,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "samples_run": self.samples_run,
            "counts": self.counts,
            "max_observed_diff": dual_of(self.max_observed_diff),
            "worst_sample": self.worst_sample,
            "paper_formula_discrepancies": self.paper_formula_discrepancies,
            "paper_formula_examples": self.paper_formula_examples,
            "counterexamples": self.counterexamples,
            "unsupported_reason": self.unsupported_reason,
            "stopped_early": self.stopped_early,
            "timing": {"seconds": self.timing_seconds},
        }

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Shared input plumbing


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _single_function(path: str) -> FunctionDef:
    functions = parse_module(_read_file(path))
    if len(functions) != 1:
        raise ValueError(f"{path}: expected exactly one function definition, found {len(functions)}")
    check_wellformed(functions[0])
    return functions[0]


def _parse_assignments(spec: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq or not key.strip() or not value.strip():
            raise ValueError(f"malformed {what} entry {item!r}, expected name=value")
        key = key.strip()
        if key in out:
            raise ValueError(f"{what} names {key!r} twice")
        out[key] = value.strip()
    return out


def _resolve_names(params: tuple, assignments: dict[str, str], what: str) -> list[str]:
    """Map user-provided names onto parameters, each exactly once.

    Accepts the parameter's own spelling (`%0` or `0`, `%x` or `x`) and the
    positional letters a, b, c, ... as aliases.
    """
    values: list[str | None] = [None] * len(params)
    spellings = {str(p): i for i, p in enumerate(params)}
    spellings.update({p.text: i for i, p in enumerate(params)})
    for i in range(len(params)):
        letter = chr(ord("a") + i)
        spellings.setdefault(letter, i)
    for key, value in assignments.items():
        if key not in spellings:
            raise ValueError(f"unknown {what} name {key!r}; parameters are "
                             + ", ".join(str(p) for p in params))
        idx = spellings[key]
        if values[idx] is not None:
            raise ValueError(f"{what} for {params[idx]} given more than once")
        values[idx] = value
    missing = [str(p) for p, v in zip(params, values) if v is None]
    if missing:
        raise ValueError(f"missing {what} for {', '.join(missing)}")
    return values  # type: ignore[return-value]


def _parse_value(text: str) -> Value:
    if text == "poison":
        return Poison()
    if text.lower().startswith("0x"):
        return Double(float_from_hex(text))
    try:
        return Double(float(text))
    except ValueError:
        raise ValueError(f"cannot read {text!r} as a double (use decimal, 0x-hex bits, or poison)")


def _parse_magnitude(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"cannot read magnitude {text!r} as a number")
    if not is_finite(x) or x < 0:
        raise ValueError(f"magnitudes must be finite and non-negative, got {text!r}")
    return x


# ---------------------------------------------------------------------------
# validate


def cmd_validate(
    original_path: str,
    optimized_path: str,
    alignment_path: str,
    sampler: SamplerConfig = SamplerConfig(),
    cfg: RefinementConfig = RefinementConfig(),
    report_path: str | None = None,
    out=None,
    err=None,
) -> int:
    started = time.perf_counter()
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        original = _single_function(original_path)
        optimized = _single_function(optimized_path)
        alignment = load_alignment(_read_file(alignment_path))
        checker = EquivChecker(original, optimized, alignment, cfg)
        # opened before the first check, so an unwritable path costs no run
        report_file = None if report_path is None else open(report_path, "w", encoding="utf-8")
    except (OSError, ParseError, AlignmentError, WellformednessError, ValueError) as e:
        print(f"error: {e}", file=err)
        return 2

    config_echo = {
        "original": original_path,
        "optimized": optimized_path,
        "alignment": alignment_path,
        "samples": sampler.samples,
        "seed": sampler.seed,
        "exp_min": sampler.exp_min,
        "exp_max": sampler.exp_max,
        "special_corpus": sampler.include_special_corpus,
        "mode": cfg.mode.value,
        "bound": cfg.bound_source.value,
        "delta": f"1/{2**-DELTA_EXP}",
        "eta": f"1/{2**-ETA_EXP}",
        "threads": 1,
    }
    try:
        with report_file if report_file is not None else contextlib.nullcontext():
            report = validate(checker, sampler, config_echo)
            report.timing_seconds = round(time.perf_counter() - started, 6)
            if report_file is None:
                out.write(report.render())
                return report.exit_code
            report_file.write(report.render())
    except OSError as e:
        # a report that cannot be written or closed is no verdict
        print(f"error: {e}", file=err)
        return 2
    summary = report.unsupported_reason or (
        f"{report.samples_run['total']} checks, "
        f"{report.counts['fail']} failures, {report.counts['unsupported']} unsupported"
    )
    print(f"{report.verdict.upper()}: {summary}; report written to {report_path}", file=out)
    return report.exit_code


def validate(checker: EquivChecker, sampler: SamplerConfig, config: dict) -> Report:
    """Check the corpus, then the seeded random stream; the run's report, `config` echoed.

    Stops after the 16th counterexample.  The report's timing is left at 0.
    Each sample is one `checker.check(args, True)`: a `None` is a pass
    with every compared difference 0.0 whose bounds were never evaluated.
    If the worst sample is one, its verdict is rebuilt after the loop by
    `check_reference`.
    """
    if checker.static_unsupported is not None:
        verdict = checker.check(())
        return Report(
            config,
            verdict="unsupported",
            counts=dict.fromkeys(
                ("pass", "fail", "unsupported", "vacuous_pass", "poison_pass", "nonzero_diff"), 0
            ),
            counterexamples=[{"index": None, **verdict.to_json()}],
            unsupported_reason=checker.static_unsupported,
        )

    counterexamples: list[dict] = []
    paper_examples: list[dict] = []
    paper_discrepancies = 0
    n_vacuous = n_nonzero = 0
    # the largest finite difference and where it was first seen: (index, args, verdict or None)
    worst_diff, worst = -1.0, None
    index = -1
    n_params = len(checker.params)
    corpus, n_corpus = (), 0
    if sampler.include_special_corpus:
        corpus, n_corpus = _corpus(n_params), min(len(special_values()) ** n_params, _MAX_CORPUS_COMBINATIONS)
    rng = random.Random(sampler.seed)
    stream = itertools.chain(
        corpus, map(compile_draw(n_params, sampler), itertools.repeat(rng, sampler.samples))
    )
    check = checker.check
    PASS, INF = Status.PASS, math.inf
    for index, raw in enumerate(stream):
        v = check(raw, True)
        if v is None:  # a pass with every compared difference 0.0, its bounds unevaluated
            if worst is None:
                worst_diff, worst = 0.0, (index, raw, None)
            continue
        status, diff = v.status, v.observed_diff
        if v.vacuous and status is PASS:
            n_vacuous += 1
        # a difference is never negative, so under INF means finite
        if diff is not None and diff < INF:
            if diff > 0.0:
                n_nonzero += 1
            if diff > worst_diff:
                worst_diff, worst = diff, (index, raw, v)
        if v.paper_disagrees:
            paper_discrepancies += 1
            if len(paper_examples) < _MAX_COUNTEREXAMPLES:
                paper_examples.append({"index": index, **v.to_json()})
        if status is not PASS:  # every failing check is a counterexample
            counterexamples.append({"index": index, **v.to_json()})
            if len(counterexamples) == _MAX_COUNTEREXAMPLES:
                break

    # past a static unsupported reason every check passes or fails, and a
    # float-only stream cannot make a block return poison
    total = index + 1
    n_corpus = min(total, n_corpus)
    worst_sample = None
    if worst is not None:
        worst_index, worst_args, worst_v = worst
        if worst_v is None:  # its bounds, through the reference, so `check` runs once per sample
            worst_v = checker.check_reference(worst_args)
        worst_sample = {
            "index": worst_index,
            "args": [dual_of(x) for x in worst_args],
            "observed_diff": dual_of(worst_diff),
            "bound_derived": dual_of(worst_v.bound_derived),
            "bound_paper": dual_of(worst_v.bound_paper),
        }
    return Report(
        config,
        verdict="fail" if counterexamples else "pass",
        samples_run={"random": total - n_corpus, "corpus": n_corpus, "total": total},
        counts={"pass": total - len(counterexamples), "fail": len(counterexamples), "unsupported": 0,
                "vacuous_pass": n_vacuous, "poison_pass": 0, "nonzero_diff": n_nonzero},
        max_observed_diff=None if worst is None else worst_diff,
        worst_sample=worst_sample,
        paper_formula_discrepancies=paper_discrepancies,
        paper_formula_examples=paper_examples,
        counterexamples=counterexamples,
        stopped_early=len(counterexamples) == _MAX_COUNTEREXAMPLES,
    )


# ---------------------------------------------------------------------------
# run


def cmd_run(block_path: str, inputs: str, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        f = _single_function(block_path)
        assignments = _parse_assignments(inputs, "input")
        raw_values = _resolve_names(f.params, assignments, "input")
        args = tuple(_parse_value(v) for v in raw_values)
    except (OSError, ParseError, WellformednessError, ValueError) as e:
        print(f"error: {e}", file=err)
        return 2
    try:
        state, trace = interp_cfg2(f, GlobalEnv.empty(), LocalEnv.empty(), args)
    except EvalError as e:
        print(f"error: {e}", file=err)
        return 1
    for event in strip_taus(trace):
        print(str(event), file=out)
    print("final locals:", file=out)
    for ident, value in state.locals.entries:
        print(f"  {ident} = {value_to_str(value)}", file=out)
    print(f"result: {value_to_str(state.result)}", file=out)
    return 0


# ---------------------------------------------------------------------------
# bound


def cmd_bound(
    original_path: str, optimized_path: str, mags: str, out=None, err=None
) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        original = _single_function(original_path)
        optimized = _single_function(optimized_path)
        interned: dict = {}
        expr_orig, expr_opt = recover_expr(original, interned), recover_expr(optimized, interned)
        assignments = _parse_assignments(mags, "magnitude")
        raw_values = _resolve_names(original.params, assignments, "magnitude")
        magnitudes = {str(p): _parse_magnitude(v) for p, v in zip(original.params, raw_values)}
        result = derive_bound(expr_orig, expr_opt, magnitudes)
    except (OSError, ParseError, WellformednessError, ValueError) as e:
        print(f"error: {e}", file=err)
        return 2
    total = eval_bound(result)
    print(f"derived bound: {total!r} ({hex_of(total)})", file=out)
    for label, term in result.terms:
        term_f = round_rational_up(term)
        print(f"  {label:<24} {term_f!r}", file=out)
    roles = fma_roles(expr_orig, expr_opt) or fma_roles(expr_opt, expr_orig)
    if roles:
        paper = round_rational_up(epsilon_fma_paper(*(magnitudes[v] for v in roles)))
        print(f"paper-formula bound: {paper!r} ({hex_of(paper)})", file=out)
    return 0


# ---------------------------------------------------------------------------
# argparse wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fma-tv",
        description="Validate fused-multiply-add contraction on straight-line double blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="sample a block pair and check refinement")
    p_val.add_argument("--original", required=True)
    p_val.add_argument("--optimized", required=True)
    p_val.add_argument("--alignment", required=True)
    sampler, cfg = SamplerConfig(), RefinementConfig()
    p_val.add_argument("--samples", type=int, default=sampler.samples)
    p_val.add_argument("--seed", type=int, default=sampler.seed)
    p_val.add_argument("--exp-min", type=int, default=sampler.exp_min)
    p_val.add_argument("--exp-max", type=int, default=sampler.exp_max)
    p_val.add_argument("--no-special-corpus", action="store_true")
    p_val.add_argument("--mode", choices=[m.value for m in Mode], default=cfg.mode.value)
    p_val.add_argument("--bound", choices=[b.value for b in BoundSource], default=cfg.bound_source.value)
    p_val.add_argument("--report")

    p_run = sub.add_parser("run", help="denote one block and print its trace")
    p_run.add_argument("--block", required=True)
    p_run.add_argument("--inputs", required=True, help="a=1.0,b=0x3FF0000000000000,c=poison")

    p_bound = sub.add_parser("bound", help="print error bounds for a block pair")
    p_bound.add_argument("--original", required=True)
    p_bound.add_argument("--optimized", required=True)
    p_bound.add_argument("--mags", required=True, help="a=1.0,b=1.0,c=1.0")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        try:
            sampler = SamplerConfig(
                samples=args.samples,
                seed=args.seed,
                exp_min=args.exp_min,
                exp_max=args.exp_max,
                include_special_corpus=not args.no_special_corpus,
            )
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        cfg = RefinementConfig(mode=Mode(args.mode), bound_source=BoundSource(args.bound))
        return cmd_validate(
            args.original, args.optimized, args.alignment, sampler, cfg, args.report
        )
    if args.command == "run":
        return cmd_run(args.block, args.inputs)
    return cmd_bound(args.original, args.optimized, args.mags)


def entry_point() -> None:
    code = main()
    gc.freeze()  # the run is over and its report closed: skip the collector's full pass at exit
    sys.exit(code)
