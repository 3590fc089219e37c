"""Refinement between an original block and its fma-contracted form.

A verdict holds when (1) global environments are bit-identical, (2) local
environments agree: aligned intermediates are within the error bound and
everything outside the declared fresh sets is bit-identical entry for
entry, and (3) returned values are within the bound.  Poison must map to
poison.  The bound comes from the error model, per sample, from the
magnitudes of the actual arguments.

Two finiteness readings are supported.  Lenient treats a comparison whose
endpoints or difference overflow as vacuously true (the published reading);
strict demands finiteness.  Their divergence is observable and tested.

The relation is defined once: `double_refine` and `local_refine` are built
from the per-value comparison (`_classify`), the bound test (`_all_hold`)
and the leftover test (`_leftover_ok`), and `EquivChecker` builds its
verdicts, and the audit of the published bound, from the same three.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from math import isfinite

from ._bits import dual_of, same_bits
from .denotation import (
    CompiledBlock,
    EvalError,
    GlobalEnv,
    LocalEnv,
    compile_block,
    interp_cfg2,
)
from .error_model import (
    Add,
    Const,
    ErrorModelParams,
    Fma,
    FpExpr,
    Mul,
    Var,
    compile_derived_bound,
    compile_paper_bound,
    expr_variables,
)
from .fp_semantics import Double, Poison, Value, b64_sub
from .ir_core import (
    FBinop,
    FBinopKind,
    FMULADD_F64,
    FunctionDef,
    IntrinsicCall,
    LocalId,
    LocalRef,
    WellformednessError,
    WfKind,
    check_wellformed,
)


class Mode(enum.Enum):
    STRICT = "strict"
    LENIENT = "lenient"


class BoundSource(enum.Enum):
    PAPER_FORMULA = "paper"
    DERIVED = "derived"
    BOTH = "both"


class Status(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    UNSUPPORTED = "unsupported"


class AlignmentError(ValueError):
    """Malformed or inconsistent alignment description."""


class UnsupportedExprError(ValueError):
    """The block computes something outside the error model's language."""


# ---------------------------------------------------------------------------
# Alignment


@dataclass(frozen=True)
class AlignmentSpec:
    """Which locals correspond across the rewrite.

    `pairs` lists (optimized id, original id) whose values must be within
    the bound; the fresh sets name locals that exist on one side only (or
    were renumbered) and are therefore exempt from the bit-identical
    leftover comparison.  Every paired id must be declared fresh on its
    side: a paired local is by definition not shared state.
    """

    pairs: tuple[tuple[LocalId, LocalId], ...] = ()
    fresh_optimized: frozenset[LocalId] = frozenset()
    fresh_original: frozenset[LocalId] = frozenset()

    def __post_init__(self):
        for opt_id, orig_id in self.pairs:
            if opt_id not in self.fresh_optimized:
                raise AlignmentError(f"paired id {opt_id} missing from fresh_optimized")
            if orig_id not in self.fresh_original:
                raise AlignmentError(f"paired id {orig_id} missing from fresh_original")

    def validate_against(self, params: tuple[LocalId, ...]) -> None:
        """Fresh sets may not claim shared inputs."""
        shared = (self.fresh_optimized | self.fresh_original) & set(params)
        if shared:
            names = ", ".join(sorted(str(p) for p in shared))
            raise AlignmentError(f"parameters cannot be fresh: {names}")


def identity_alignment() -> AlignmentSpec:
    return AlignmentSpec()


def load_alignment(text: str) -> AlignmentSpec:
    """Parse the JSON alignment form.

    Schema: {"pairs": [["%4", "%5"], ...], "fresh_optimized": ["%4", ...],
    "fresh_original": ["%4", ...]}; all keys optional, ids with % prefix.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise AlignmentError(f"alignment is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise AlignmentError("alignment must be a JSON object")
    unknown = set(doc) - {"pairs", "fresh_optimized", "fresh_original"}
    if unknown:
        raise AlignmentError(f"unknown alignment keys: {', '.join(sorted(unknown))}")

    def ident(s) -> LocalId:
        if not isinstance(s, str):
            raise AlignmentError(f"identifier must be a string, got {s!r}")
        try:
            return LocalId.parse(s)
        except ValueError as e:
            raise AlignmentError(str(e)) from None

    raw_pairs = doc.get("pairs", [])
    if not isinstance(raw_pairs, list):
        raise AlignmentError("pairs must be a list")
    pairs = []
    for entry in raw_pairs:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise AlignmentError(f"each pair must be a two-element list, got {entry!r}")
        pairs.append((ident(entry[0]), ident(entry[1])))

    def ident_set(key: str) -> frozenset[LocalId]:
        raw = doc.get(key, [])
        if not isinstance(raw, list):
            raise AlignmentError(f"{key} must be a list")
        return frozenset(ident(s) for s in raw)

    return AlignmentSpec(tuple(pairs), ident_set("fresh_optimized"), ident_set("fresh_original"))


# ---------------------------------------------------------------------------
# Configuration and verdicts


@dataclass(frozen=True)
class RefinementConfig:
    mode: Mode = Mode.LENIENT
    bound_source: BoundSource = BoundSource.BOTH
    params: ErrorModelParams = ErrorModelParams()


@dataclass(frozen=True)
class VerdictDetail:
    """Everything a report needs to reproduce or explain one check."""

    args: tuple[Value, ...] = ()
    message: str | None = None
    failed_clause: str | None = None
    failed_ids: tuple[str, ...] = ()
    observed_diff: float | None = None
    bound_used: float | None = None
    bound_source_used: str | None = None
    bound_paper: float | None = None
    bound_derived: float | None = None
    poison_result: bool = False
    vacuous: bool = False
    audited: bool = False
    paper_disagrees: bool = False

    def to_json(self) -> dict:
        return {
            "args": ["poison" if isinstance(a, Poison) else dual_of(a.v) for a in self.args],
            "message": self.message,
            "failed_clause": self.failed_clause,
            "failed_ids": list(self.failed_ids),
            "observed_diff": dual_of(self.observed_diff),
            "bound_used": dual_of(self.bound_used),
            "bound_source_used": self.bound_source_used,
            "bound_paper": dual_of(self.bound_paper),
            "bound_derived": dual_of(self.bound_derived),
            "poison_result": self.poison_result,
            "vacuous": self.vacuous,
            "audited": self.audited,
            "paper_disagrees": self.paper_disagrees,
        }


@dataclass(frozen=True)
class Verdict:
    status: Status
    detail: VerdictDetail = field(default_factory=VerdictDetail)

    def to_json(self) -> dict:
        return {"status": self.status.value, **self.detail.to_json()}


# ---------------------------------------------------------------------------
# Value and environment refinement


def _compare(x_opt: float, x_orig: float) -> tuple[float, bool]:
    """(|difference|, all-finite) of two defined doubles."""
    diff = b64_sub(x_opt, x_orig)
    return abs(diff), isfinite(x_opt) and isfinite(x_orig) and isfinite(diff)


def _classify(v_opt: Value | None, v_orig: Value | None):
    """Reduce one comparison to what remains to decide once a bound is known.

    None: holds for any bound.  False: fails for any bound (a missing
    value, or poison against anything but poison of the same type).
    Otherwise the (|difference|, all-finite) pair of `_compare`.
    """
    if v_opt is None or v_orig is None:
        return False
    if isinstance(v_opt, Poison) and isinstance(v_orig, Poison):
        return None if v_opt.ty is v_orig.ty else False
    if isinstance(v_opt, Poison) or isinstance(v_orig, Poison):
        return False
    return _compare(v_opt.v, v_orig.v)


def _all_hold(checks, bound: float, strict: bool) -> bool:
    """Whether every classified comparison is within `bound`.

    A non-finite comparison holds vacuously unless `strict`.
    """
    for c in checks:
        if c is None:
            continue
        if c is False:
            return False
        absdiff, finite = c
        if finite:
            if not absdiff <= bound:
                return False
        elif strict:
            return False
    return True


def _leftover_ok(opt_env: LocalEnv, orig_env: LocalEnv, align: AlignmentSpec) -> bool:
    """Both environments, fresh ids removed, are equal as sequences, bit for bit."""
    removal = align.fresh_optimized | align.fresh_original
    return opt_env.remove_all(removal).entries == orig_env.remove_all(removal).entries


def double_refine(
    d1: Value, d2: Value, bound: float, cfg: RefinementConfig = RefinementConfig()
) -> bool:
    """Relate an optimized value `d1` to an original value `d2`.

    Poison only refines poison.  For defined doubles the computed
    difference must stay within `bound`; when an endpoint or the difference
    itself is non-finite, lenient mode accepts vacuously and strict mode
    rejects.
    """
    return _all_hold((_classify(d1, d2),), bound, cfg.mode is Mode.STRICT)


def local_refine(
    opt_env: LocalEnv,
    orig_env: LocalEnv,
    align: AlignmentSpec,
    bound: float,
    cfg: RefinementConfig = RefinementConfig(),
) -> bool:
    """Relate final local environments.

    Each aligned pair must be present on both sides and within the bound;
    after removing all fresh ids from both environments, the leftovers must
    be equal as sequences, bit for bit.
    """
    checks = [_classify(opt_env.lookup(o), orig_env.lookup(g)) for o, g in align.pairs]
    return _all_hold(checks, bound, cfg.mode is Mode.STRICT) and _leftover_ok(
        opt_env, orig_env, align
    )


# ---------------------------------------------------------------------------
# Symbolic recovery

# The error model walks the returned expression as a tree, recursively, so
# a shared local counts once per use.  Past these limits the walk would
# take exponential time or exhaust the interpreter's recursion limit.
MAX_EXPR_NODES = 10_000
MAX_EXPR_DEPTH = 300


def recover_expr(f: FunctionDef) -> FpExpr:
    """The returned value of `f` as an expression over its parameters.

    Only fmul, fadd and the fmuladd intrinsic have counterparts in the
    error model; anything else raises UnsupportedExprError, as do a
    non-finite literal and a returned expression with more than
    MAX_EXPR_NODES nodes once shared locals are expanded, or more than
    MAX_EXPR_DEPTH nested operations.
    """
    # each local's expression, expanded node count and operation depth
    env: dict[LocalId, tuple[FpExpr, int, int]] = {p: (Var(str(p)), 1, 0) for p in f.params}

    def conv(e) -> tuple[FpExpr, int, int]:
        if isinstance(e, LocalRef):
            if e.id not in env:
                raise UnsupportedExprError(f"undefined local {e.id}")
            return env[e.id]
        if not isfinite(e.value):
            raise UnsupportedExprError(f"non-finite literal {e} has no magnitude")
        return Const(e.value), 1, 0

    for instr in f.body.blk_code:
        if isinstance(instr, FBinop):
            if instr.fm_flags:
                raise UnsupportedExprError(f"fast-math flags on {instr.dest}")
            if instr.kind is FBinopKind.FMUL:
                make = Mul
            elif instr.kind is FBinopKind.FADD:
                make = Add
            else:
                raise UnsupportedExprError(f"no error model for {instr.kind}")
            operands = (instr.lhs, instr.rhs)
        else:
            if instr.callee.text != FMULADD_F64 or len(instr.args) != 3:
                raise UnsupportedExprError(f"unsupported call to {instr.callee}")
            make, operands = Fma, instr.args
        exprs, nodes, depths = zip(*map(conv, operands))
        env[instr.dest] = (make(*exprs), 1 + sum(nodes), 1 + max(depths))
    expr, nodes, depth = conv(f.body.blk_term.value)
    if nodes > MAX_EXPR_NODES:
        raise UnsupportedExprError(
            f"returned expression has {nodes} nodes, over the error model's limit of {MAX_EXPR_NODES}"
        )
    if depth > MAX_EXPR_DEPTH:
        raise UnsupportedExprError(
            f"returned expression nests {depth} operations, over the error model's limit of {MAX_EXPR_DEPTH}"
        )
    return expr


# ---------------------------------------------------------------------------
# The equivalence check


class EquivChecker:
    """Precomputed state for checking one block pair on many inputs.

    Construction validates everything input-independent: identical
    parameter lists, wellformedness, alignment consistency, callee names,
    and availability of the requested bound.  Violations that make the pair
    fall outside the supported fragment surface as UNSUPPORTED verdicts;
    violations that make the request itself ill-posed raise.  It also fixes
    the bound plan: the compiled derived and published bounds (None where
    unavailable), which of them gates the verdict, and whether the
    published one audits the derived one.  A sample only evaluates them.

    Construction also compiles both blocks to straight-line evaluation over
    slots (`compile_block`) and resolves the aligned pairs, the returned
    operands and the leftover comparison to slot indices (`compiled`).
    Sampled checks run that form.  `interp_cfg2` stays the reference
    semantics: `check_reference` always uses it, and `check` falls back to
    it for poison arguments, pre-populated environments and anything the
    compiler does not cover, where `compiled` is None.
    """

    def __init__(
        self,
        original: FunctionDef,
        optimized: FunctionDef,
        alignment: AlignmentSpec,
        config: RefinementConfig = RefinementConfig(),
        globals_env: GlobalEnv | None = None,
        locals_env: LocalEnv | None = None,
    ):
        self.original = original
        self.optimized = optimized
        self.alignment = alignment
        self.config = config
        self.globals_env = globals_env if globals_env is not None else GlobalEnv.empty()
        self.locals_env = locals_env if locals_env is not None else LocalEnv.empty()

        if original.params != optimized.params:
            raise ValueError(
                "parameter lists differ: "
                f"({', '.join(map(str, original.params))}) vs "
                f"({', '.join(map(str, optimized.params))})"
            )
        self.params = original.params
        alignment.validate_against(self.params)

        unsupported: str | None = None
        for f, tag in ((original, "original"), (optimized, "optimized")):
            try:
                check_wellformed(f)
            except WellformednessError as e:
                if e.kind is WfKind.UNSUPPORTED_FLAGS and unsupported is None:
                    unsupported = f"{tag}: {e}"
                elif e.kind is not WfKind.UNSUPPORTED_FLAGS:
                    raise
        if unsupported is None:
            for f, tag in ((original, "original"), (optimized, "optimized")):
                for instr in f.body.blk_code:
                    if isinstance(instr, IntrinsicCall) and (
                        instr.callee.text != FMULADD_F64 or len(instr.args) != 3
                    ):
                        unsupported = f"{tag}: unsupported call to {instr.callee}"
                        break
                if unsupported:
                    break

        # the bound plan: each evaluator, or None where it is unavailable,
        # and which bound gates the verdict
        derived_eval = paper_eval = None
        src = config.bound_source
        if unsupported is None:
            why_no_derived = None
            try:
                expr_orig, expr_opt = recover_expr(original), recover_expr(optimized)
                if expr_variables(expr_orig) != expr_variables(expr_opt):
                    why_no_derived = "expressions read different variables"
                else:
                    derived_eval = compile_derived_bound(
                        expr_orig, expr_opt, tuple(str(p) for p in self.params), config.params
                    )
            except UnsupportedExprError as e:
                why_no_derived = str(e)
            if len(self.params) == 3:
                paper_eval = compile_paper_bound(config.params)
            if src is BoundSource.PAPER_FORMULA and paper_eval is None:
                unsupported = "published bound needs exactly three double parameters"
            elif src is BoundSource.DERIVED and derived_eval is None:
                unsupported = f"derived bound unavailable: {why_no_derived}"
            elif derived_eval is None and paper_eval is None:
                unsupported = f"no bound available: {why_no_derived}"
        self._derived_eval, self._paper_eval = derived_eval, paper_eval
        self._gate = "paper" if src is BoundSource.PAPER_FORMULA or derived_eval is None else "derived"
        # the published bound audits the derived one when both exist and both were asked for
        self._audited = src is BoundSource.BOTH and None not in (derived_eval, paper_eval)
        self._strict = config.mode is Mode.STRICT
        self.static_unsupported = unsupported

        self.compiled: CompiledPair | None = None
        if unsupported is None and not self.globals_env.entries and not self.locals_env.entries:
            self.compiled = CompiledPair.build(original, optimized, alignment)

    # -- per-sample work

    def _bounds(self, mags: tuple[float, ...]) -> tuple[float | None, float | None]:
        """(derived, paper) bounds for these argument magnitudes, None where unavailable."""
        derived, paper = self._derived_eval, self._paper_eval
        return (None if derived is None else derived(mags)), (None if paper is None else paper(mags))

    def check(self, args: tuple[Value, ...]) -> Verdict:
        """The verdict for one input tuple.

        Poison-free arguments of the right arity run the compiled blocks;
        everything else goes through `check_reference`, with the same
        verdict either way.
        """
        compiled = self.compiled
        if compiled is None or len(args) != len(self.params) or Poison in map(type, args):
            return self.check_reference(args)
        xs = tuple(a.v for a in args)
        s_orig = compiled.original.run(xs)
        s_opt = compiled.optimized.run(xs)
        leftover_ok = compiled.leftover is not None and all(
            same_bits(s_opt[i], s_orig[j]) for i, j in compiled.leftover
        )
        pair_checks = [
            False if i is None or j is None else _compare(s_opt[i], s_orig[j])
            for i, j in compiled.pairs
        ]
        ret_check = _compare(s_opt[compiled.optimized.result], s_orig[compiled.original.result])
        # straight-line blocks write no globals: both runs end on the initial ones
        return self._verdict(
            args, tuple(map(abs, xs)), True, leftover_ok, pair_checks, ret_check, False
        )

    def check_reference(self, args: tuple[Value, ...]) -> Verdict:
        """The verdict for one input tuple by way of `interp_cfg2`."""
        if self.static_unsupported is not None:
            return Verdict(
                Status.UNSUPPORTED, VerdictDetail(args=args, message=self.static_unsupported)
            )
        try:
            ms_orig, _ = interp_cfg2(self.original, self.globals_env, self.locals_env, args)
            ms_opt, _ = interp_cfg2(self.optimized, self.globals_env, self.locals_env, args)
        except EvalError as e:
            return Verdict(Status.UNSUPPORTED, VerdictDetail(args=args, message=str(e)))

        pair_checks = [
            _classify(ms_opt.locals.lookup(opt_id), ms_orig.locals.lookup(orig_id))
            for opt_id, orig_id in self.alignment.pairs
        ]
        ret_orig, ret_opt = ms_orig.result, ms_opt.result
        return self._verdict(
            args,
            tuple(abs(a.v) if isinstance(a, Double) else 0.0 for a in args),
            ms_opt.globals == ms_orig.globals,
            _leftover_ok(ms_opt.locals, ms_orig.locals, self.alignment),
            pair_checks,
            _classify(ret_opt, ret_orig),
            isinstance(ret_opt, Poison) and isinstance(ret_orig, Poison),
        )

    def _verdict(
        self,
        args: tuple[Value, ...],
        mags: tuple[float, ...],
        globals_ok: bool,
        leftover_ok: bool,
        pair_checks: list,
        ret_check,
        poison_result: bool,
    ) -> Verdict:
        """Bounds, clause outcomes and the audit for one evaluated sample."""
        bound_derived, bound_paper = self._bounds(mags)
        source_used = self._gate
        bound_used = bound_derived if source_used == "derived" else bound_paper
        strict = self._strict
        pairs_ok = _all_hold(pair_checks, bound_used, strict)
        ret_ok = _all_hold((ret_check,), bound_used, strict)
        bad_pairs: tuple[str, ...] = ()
        if not pairs_ok:
            bad_pairs = tuple(
                f"{opt_id}~{orig_id}"
                for (opt_id, orig_id), c in zip(self.alignment.pairs, pair_checks)
                if not _all_hold((c,), bound_used, strict)
            )

        # a (|difference|, all-finite) return check means both returns are doubles
        observed_diff = None
        vacuous = False
        if isinstance(ret_check, tuple):
            observed_diff, finite = ret_check
            vacuous = not (strict or finite)

        # audited means bound_used is the derived bound: only the checks can
        # make the two verdicts differ, and only if every other clause holds
        paper_disagrees = (
            self._audited
            and globals_ok
            and leftover_ok
            and (pairs_ok and ret_ok) != _all_hold((*pair_checks, ret_check), bound_paper, strict)
        )

        if globals_ok and pairs_ok and leftover_ok and ret_ok:
            status, clause, ids = Status.PASS, None, ()
        elif not globals_ok:
            status, clause, ids = Status.FAIL, "globals", ()
        elif not (pairs_ok and leftover_ok):
            status, clause, ids = Status.FAIL, "locals", bad_pairs
        else:
            status, clause, ids = Status.FAIL, "return", ()

        return Verdict(
            status,
            VerdictDetail(
                args=args,
                failed_clause=clause,
                failed_ids=ids,
                observed_diff=observed_diff,
                bound_used=bound_used,
                bound_source_used=source_used,
                bound_paper=bound_paper,
                bound_derived=bound_derived,
                poison_result=poison_result,
                vacuous=vacuous,
                audited=self._audited,
                paper_disagrees=paper_disagrees,
            ),
        )


@dataclass(frozen=True)
class CompiledPair:
    """Both blocks compiled, with every local the verdict reads resolved to a slot.

    `pairs` holds (optimized slot, original slot) per aligned pair, None
    for an id the block never binds.  `leftover` holds the slot pairs whose
    values must agree bit for bit after the fresh ids are removed; a pair
    of the same parameter slot is left out, as it always agrees.  It is
    None when the leftover id sequences differ, so the clause fails on
    every input.
    """

    original: CompiledBlock
    optimized: CompiledBlock
    pairs: tuple[tuple[int | None, int | None], ...]
    leftover: tuple[tuple[int, int], ...] | None

    @classmethod
    def build(
        cls, original: FunctionDef, optimized: FunctionDef, alignment: AlignmentSpec
    ) -> CompiledPair | None:
        orig, opt = compile_block(original), compile_block(optimized)
        if orig is None or opt is None:
            return None
        pairs = tuple((opt.slot_of(o), orig.slot_of(g)) for o, g in alignment.pairs)
        removal = alignment.fresh_optimized | alignment.fresh_original
        rest_opt = [(k, i) for k, i in opt.entries if k not in removal]
        rest_orig = [(k, j) for k, j in orig.entries if k not in removal]
        leftover = None
        if [k for k, _ in rest_opt] == [k for k, _ in rest_orig]:
            n = len(original.params)
            leftover = tuple(
                (i, j) for (_, i), (_, j) in zip(rest_opt, rest_orig) if not i == j < n
            )
        return cls(orig, opt, pairs, leftover)


def check_equiv(
    f_opt: FunctionDef,
    f_orig: FunctionDef,
    g: GlobalEnv,
    l: LocalEnv,
    args: tuple[Value, ...],
    align: AlignmentSpec,
    cfg: RefinementConfig = RefinementConfig(),
) -> Verdict:
    """Check one input tuple; see EquivChecker for the batched form."""
    return EquivChecker(f_orig, f_opt, align, cfg, g, l).check(args)
