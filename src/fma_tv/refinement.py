"""Refinement between an original block and its fma-contracted form.

A verdict holds when (1) local environments agree: aligned intermediates
are within the error bound and everything outside the declared fresh sets
is bit-identical entry for entry, and (2) returned values are within the
bound.  Poison must map to poison.  The relation's third clause, equal
global environments, holds by construction: the blocks read and write no
globals, so both runs end with the environment they started from.  The
bound comes from the error model, per sample, from the magnitudes of the
actual arguments.

Two finiteness readings are supported.  Lenient treats a comparison whose
endpoints or difference overflow as vacuously true (the published reading);
strict demands finiteness.  Their divergence is observable and tested.

The relation is defined once: `double_refine` and `local_refine` are built
from the per-value comparison (`_classify`), the bound test (`_all_hold`)
and the leftover test (`_leftover_ok`), and `EquivChecker` builds its
verdicts, and the audit of the published bound, from the same three.
Every check yields one flat `Verdict` record, `status` first; `check_equiv`
reuses one checker per block pair.
"""

from __future__ import annotations

import enum
import functools
import json
from math import inf, isfinite
from typing import NamedTuple

from ._bits import Record, dual_of, same_bits
from . import denotation
from .denotation import GlobalEnv, LocalEnv, interp_cfg2
from .error_model import (
    Add,
    CoefficientLimitError,
    Fma,
    FpExpr,
    MismatchedExpressionsError,
    Mul,
    Var,
    compile_derived_bound,
    compile_paper_bound,
)
from .fp_semantics import Double, Poison, Value, b64_sub, compile_function, fma_source
from .ir_core import (
    FBinop,
    FBinopKind,
    FunctionDef,
    IntrinsicCall,
    LocalId,
    LocalRef,
    check_wellformed,
    unsupported_reason,
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


class AlignmentSpec(Record):
    """Which locals correspond across the rewrite.

    `pairs` lists (optimized id, original id) whose values must be within
    the bound; the fresh sets name locals that exist on one side only (or
    were renumbered) and are therefore exempt from the bit-identical
    leftover comparison.  Every paired id must be declared fresh on its
    side: a paired local is by definition not shared state.
    """

    __slots__ = ("pairs", "fresh_optimized", "fresh_original")

    def __init__(self, pairs: tuple[tuple[LocalId, LocalId], ...] = (),
                 fresh_optimized: frozenset[LocalId] = frozenset(), fresh_original: frozenset[LocalId] = frozenset()):
        for opt_id, orig_id in pairs:
            if opt_id not in fresh_optimized:
                raise AlignmentError(f"paired id {opt_id} missing from fresh_optimized")
            if orig_id not in fresh_original:
                raise AlignmentError(f"paired id {orig_id} missing from fresh_original")
        super().__init__(pairs, fresh_optimized, fresh_original)

    def validate_against(self, params: tuple[LocalId, ...]) -> None:
        """Fresh sets may not claim shared inputs."""
        shared = (self.fresh_optimized | self.fresh_original) & set(params)
        if shared:
            names = ", ".join(sorted(str(p) for p in shared))
            raise AlignmentError(f"parameters cannot be fresh: {names}")


def identity_alignment() -> AlignmentSpec:
    return AlignmentSpec()


def _unique_keys(items: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key raises AlignmentError rather than keep its last value."""
    doc = {}
    for key, value in items:
        if key in doc:
            raise AlignmentError(f"duplicate alignment key: {key}")
        doc[key] = value
    return doc


def load_alignment(text: str) -> AlignmentSpec:
    """Parse the JSON alignment form.

    Schema: {"pairs": [["%4", "%5"], ...], "fresh_optimized": ["%4", ...],
    "fresh_original": ["%4", ...]}; all keys optional and none repeated,
    ids with % prefix.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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


class RefinementConfig(Record):
    __slots__ = ("mode", "bound_source")

    def __init__(self, mode: Mode = Mode.LENIENT, bound_source: BoundSource = BoundSource.BOTH):
        super().__init__(mode, bound_source)


class Verdict(NamedTuple):
    """The outcome of one check, with everything a report needs to reproduce or explain it.

    `args` is the input tuple as the caller passed it: a bare float there is
    the defined double of the same bits, and renders like one.  `bound_used`
    is the bound that gated the verdict, computed from `bound_source_used`.
    """

    status: Status
    args: tuple[Value | float, ...] = ()
    message: str | None = None
    failed_clause: str | None = None
    failed_ids: tuple[str, ...] = ()
    observed_diff: float | None = None
    bound_source_used: str | None = None
    bound_paper: float | None = None
    bound_derived: float | None = None
    poison_result: bool = False
    vacuous: bool = False
    audited: bool = False
    paper_disagrees: bool = False

    @property
    def bound_used(self) -> float | None:
        return self.bound_derived if self.bound_source_used == "derived" else self.bound_paper

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "args": [
                dual_of(a) if isinstance(a, float) else "poison" if isinstance(a, Poison) else dual_of(a.v)
                for a in self.args
            ],
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


# ---------------------------------------------------------------------------
# Value and environment refinement

# each binary operation's Python float operator (exactly its `b64_*`) and error-model node, if any
_FBINOP = {FBinopKind.FMUL: ("*", Mul), FBinopKind.FADD: ("+", Add), FBinopKind.FSUB: ("-", None)}


def _classify(v_opt: Value | None, v_orig: Value | None):
    """Reduce one comparison to what remains to decide once a bound is known.

    None: holds for any bound.  False: fails for any bound (a missing
    value, or poison against anything but poison).
    Otherwise the |difference| of two defined doubles, which is finite
    only if both doubles are.
    """
    if v_opt is None or v_orig is None:
        return False
    if isinstance(v_opt, Poison) and isinstance(v_orig, Poison):
        return None
    if isinstance(v_opt, Poison) or isinstance(v_orig, Poison):
        return False
    return abs(b64_sub(v_opt.v, v_orig.v))


def _all_hold(checks, bound: float, strict: bool) -> bool:
    """Whether every classified comparison is within `bound`.

    A non-finite comparison holds vacuously unless `strict`.
    """
    for c in checks:
        if c is None:
            continue
        if c is False or not (c <= bound if c < inf else not strict):
            return False
    return True


# `_all_hold` of one `_classify` |difference| `d` as source, against the bound `b`
_HOLDS_SOURCE = {False: "({d} <= {b} or not {d} < INF)", True: "({d} <= {b} and {d} < INF)"}


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

# Past this many nested operations the checker's build takes seconds (a
# 150-step Horner chain 2.4 s, a 300-step one 17 s), and `Record.__eq__` and
# `__repr__` recurse once per level of the expression.
MAX_EXPR_DEPTH = 300


def recover_expr(f: FunctionDef, interned: dict | None = None) -> FpExpr:
    """The returned value of `f` as an expression over its parameters, a shared local one node.

    Equal sub-expressions are one object: `interned` maps a variable or
    literal, or an operation's class and operands' `id`s, to its node; one
    table for both blocks of a pair makes them share theirs too.  Only
    unflagged fmul and fadd and the fmuladd intrinsic have counterparts in
    the error model; anything else raises UnsupportedExprError, with
    `unsupported_reason`'s text where it has one, as do a non-finite literal
    and a returned expression nesting more than MAX_EXPR_DEPTH operations.
    """
    interned = {} if interned is None else interned
    # each local's expression and operation depth
    env: dict[LocalId, tuple[FpExpr, int]] = {p: (interned.setdefault(v := Var(str(p)), v), 0) for p in f.params}

    def conv(e) -> tuple[FpExpr, int]:
        if isinstance(e, LocalRef):
            if e.id not in env:
                raise UnsupportedExprError(f"undefined local {e.id}")
            return env[e.id]
        if not isfinite(e.v):
            raise UnsupportedExprError(f"non-finite literal {e} has no magnitude")
        return interned.setdefault(e, e), 0

    for instr in f.body.blk_code:
        if why := unsupported_reason(instr):
            raise UnsupportedExprError(why)
        if isinstance(instr, FBinop):
            make = _FBINOP[instr.kind][1]
            if make is None:
                raise UnsupportedExprError(f"no error model for {instr.kind}")
            operands = (instr.lhs, instr.rhs)
        else:
            make, operands = Fma, instr.args
        exprs, depths = zip(*map(conv, operands))
        env[instr.dest] = interned.setdefault((make, *map(id, exprs)), make(*exprs)), 1 + max(depths)
    expr, depth = conv(f.body.blk_term.value)
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
    parameter lists, wellformedness, alignment consistency, each
    instruction's `unsupported_reason`, and availability of the requested
    bound.  Violations that make the pair fall outside the supported
    fragment surface as UNSUPPORTED verdicts; violations that make the
    request itself ill-posed raise.  Past them no
    tuple of floats, `Double`s and poison makes the interpreter fail, so a
    sample's verdict is PASS or FAIL.  It also fixes
    the bound plan: the compiled derived and published bounds (None where
    unavailable), which of them gates the verdict, and whether the
    published one audits the derived one.  A sample only calls them,
    and under `check(args, True)` only if a compared difference is nonzero
    or non-finite.

    From both blocks, the alignment and the bound plan, construction also
    generates `compiled`: one straight-line function that `check` runs on
    every tuple; it is None exactly when the pair is statically
    unsupported.  `interp_cfg2` stays the reference semantics:
    `check_reference` always uses it, `compiled` hands it `Double`s,
    poison, mixed or wrongly sized arguments, and `check` calls it for
    unsupported pairs.
    """

    def __init__(
        self,
        original: FunctionDef,
        optimized: FunctionDef,
        alignment: AlignmentSpec,
        config: RefinementConfig = RefinementConfig(),
    ):
        self.original = original
        self.optimized = optimized
        self.alignment = alignment

        if original.params != optimized.params:
            raise ValueError(
                "parameter lists differ: "
                f"({', '.join(map(str, original.params))}) vs "
                f"({', '.join(map(str, optimized.params))})"
            )
        self.params = original.params
        alignment.validate_against(self.params)

        # a structural fault raises; then the first flag in either block beats the first foreign call
        check_wellformed(original)
        check_wellformed(optimized)
        reasons = [(isinstance(instr, IntrinsicCall), f"{tag}: {why}")
                   for f, tag in ((original, "original"), (optimized, "optimized"))
                   for instr in f.body.blk_code if (why := unsupported_reason(instr))]
        unsupported = min(reasons, key=lambda r: r[0])[1] if reasons else None  # min keeps the first of equal keys

        # the bound plan: each evaluator, or None where it is unavailable,
        # and which bound gates the verdict
        derived_eval = paper_eval = None
        src = config.bound_source
        if unsupported is None:
            why_no_derived = None
            try:
                interned: dict = {}
                expr_orig, expr_opt = recover_expr(original, interned), recover_expr(optimized, interned)
                derived_eval = compile_derived_bound(expr_orig, expr_opt, tuple(str(p) for p in self.params))
            except (UnsupportedExprError, MismatchedExpressionsError, CoefficientLimitError) as e:
                why_no_derived = str(e)
            if len(self.params) == 3:
                paper_eval = compile_paper_bound()
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

        self.compiled = None if unsupported is not None else self._generate()

    # -- per-sample work

    def check(self, args: tuple[Value | float, ...], lazy: bool = False) -> Verdict | None:
        """The verdict for one input tuple, of bare floats or of values.

        Runs the generated function, which takes a tuple of floats of the
        right arity and hands everything else, `Double`s included, to
        `check_reference`; an unsupported pair goes there directly.  The
        verdict is the same either way, and its `args` is `args` as passed.
        With `lazy`, a tuple of floats whose compared differences are all
        exactly 0.0 and whose leftover clause holds returns None instead,
        before any bound is evaluated: such a sample passes under any
        bound, is not vacuous and does not disagree, and
        `check_reference(args)` rebuilds its verdict.  Without `lazy` the
        result is never None.
        """
        compiled = self.compiled
        return compiled(args, lazy) if compiled is not None else self.check_reference(args)

    def _generate(self):
        """`check` as one function specialised to this checker.

        A guard first hands every tuple but one of exactly `float`s of the
        right arity (an `int`, a `bool`, a `float` subclass, a `Double` or
        poison included) to `check_reference`.  Then straight-line source over
        `args`: both blocks, each binary operation as its Python float operator
        (exactly its `b64_*`) and each fmuladd as `fma_source` routes it,
        calling the `b64_fma` that `denotation` holds at construction only off
        its inline routes; the differences; under the second parameter `lazy`,
        an early `None` when every compared difference is exactly 0.0 and the
        leftover clause holds; both bounds, calls of the `CompiledBound`s `D`
        and `P` on the magnitudes `ms`; and a passing verdict built in place.
        Any other outcome is left to `check_reference`.  Wellformedness binds
        every local once, so each block's names in binding order are its final
        environment.  Names come from indices only: `x{i}` for parameter i,
        `o{k}` and `p{k}` for instruction k of the original and the optimized
        block, and `o{k}_{j}`, `p{k}_{j}` for operand j's literal (k past the
        last instruction for the return); every value is bound in `ns`.
        """
        n = len(self.params)
        ns = {"same_bits": same_bits, "reference": self.check_reference, "INF": inf, "new": tuple.__new__,
              "Verdict": Verdict, "PASS": Status.PASS, "SOURCE": self._gate, "AUDITED": self._audited,
              "fma_exact": denotation.b64_fma, "D": self._derived_eval, "P": self._paper_eval}
        body = [f"if len(args) != {n}: return reference(args)"]
        if n:
            body += [f"{''.join(f'x{i}, ' for i in range(n))}= args",
                     f"if {' or '.join(f'type(x{i}) is not float' for i in range(n))}: return reference(args)"]

        def emit(tag: str, block: FunctionDef) -> tuple[dict[LocalId, str], str]:
            """Append `block` to `body`: its final environment as names, and the name it returns."""
            env = {p: f"x{i}" for i, p in enumerate(self.params)}

            def operand(e, k: int, j: int) -> str:
                if isinstance(e, LocalRef):
                    return env[e.id]
                ns[f"{tag}{k}_{j}"] = e.v
                return f"{tag}{k}_{j}"

            code = block.body.blk_code
            for k, instr in enumerate(code):
                dest = f"{tag}{k}"
                if isinstance(instr, FBinop):
                    lhs, rhs = operand(instr.lhs, k, 0), operand(instr.rhs, k, 1)
                    body.append(f"{dest} = {lhs} {_FBINOP[instr.kind][0]} {rhs}")
                else:
                    args = (operand(e, k, j) for j, e in enumerate(instr.args))
                    body.extend(fma_source(dest, *args, ns))
                env[instr.dest] = dest
            return env, operand(block.body.blk_term.value, len(code), 0)

        orig_env, orig_ret = emit("o", self.original)
        opt_env, opt_ret = emit("p", self.optimized)
        align = self.alignment
        # each distinct (optimized, original) pair of names compared, None for an unbound id, the return last
        pairs = [(opt_env.get(o), orig_env.get(g)) for o, g in align.pairs]
        compared = dict.fromkeys([*pairs, (opt_ret, orig_ret)])
        diffs = {ij: f"d{k}" for k, ij in enumerate(compared) if None not in ij}
        body += [f"{d} = abs({i} - {j})" for (i, j), d in diffs.items()]

        def all_hold(b: str) -> str:
            holds = _HOLDS_SOURCE[self._strict]
            return " and ".join(holds.format(d=diffs[ij], b=b) if ij in diffs else "False" for ij in compared)

        # the leftover clause: the same ids in the same order, then the same bits
        removal = align.fresh_optimized | align.fresh_original
        rest_opt = [(k, v) for k, v in opt_env.items() if k not in removal]
        rest_orig = [(k, v) for k, v in orig_env.items() if k not in removal]
        leftover = "False"
        if [k for k, _ in rest_opt] == [k for k, _ in rest_orig]:
            # a parameter always agrees with itself
            same = [f"same_bits({i}, {j})" for (_, i), (_, j) in zip(rest_opt, rest_orig) if i != j]
            leftover = " and ".join(same) or "True"
        # every bound is in [0, inf] (test_compiled_bounds_are_never_negative_or_nan), so all-zero differences pass
        zero = " and ".join(f"{diffs[ij]} == 0.0" if ij in diffs else "False" for ij in compared)
        body.append(f"if lazy and {zero} and {leftover}: return None")
        body += [f"ms = ({''.join(f'abs(x{i}), ' for i in range(n))})",
                 "bd = None" if self._derived_eval is None else "bd = D(ms)",
                 "bp = None" if self._paper_eval is None else "bp = P(ms)"]

        used, ret = "bd" if self._gate == "derived" else "bp", diffs[opt_ret, orig_ret]
        vacuous = "False" if self._strict else f"not {ret} < INF"
        disagrees = f"not ({all_hold('bp')})" if self._audited else "False"
        body += [
            f"if {leftover} and {all_hold(used)}:",
            f"    return new(Verdict, (PASS, args, None, None, (), {ret}, SOURCE, bp, bd, "
            f"False, {vacuous}, AUDITED, {disagrees}))",
            "return reference(args)",
        ]
        return compile_function("check", "args, lazy=False", body, ns)

    def check_reference(
        self, args: tuple[Value | float, ...], g: GlobalEnv = GlobalEnv.empty(), l: LocalEnv = LocalEnv.empty()
    ) -> Verdict:
        """The verdict for one input tuple by way of `interp_cfg2`, run from `g` and `l`.

        Bare floats are boxed first.  Neither block reads or writes a
        global, so both runs end with `g` and only the locals and the
        return are compared.  An argument of any other type raises the
        interpreter's error where it is first read.
        """
        if self.static_unsupported is not None:
            return Verdict(Status.UNSUPPORTED, args, self.static_unsupported)
        # each bare float is the defined double of the same bits
        values = tuple(Double(a) if isinstance(a, float) else a for a in args)
        ms_orig, _ = interp_cfg2(self.original, g, l, values)
        ms_opt, _ = interp_cfg2(self.optimized, g, l, values)

        mags = tuple(abs(a.v) if isinstance(a, Double) else 0.0 for a in values)
        derived, paper = self._derived_eval, self._paper_eval
        bound_derived = None if derived is None else derived(mags)
        bound_paper = None if paper is None else paper(mags)
        bound_used = bound_derived if self._gate == "derived" else bound_paper
        strict = self._strict
        pairs = self.alignment.pairs
        pair_checks = [_classify(ms_opt.locals.lookup(o), ms_orig.locals.lookup(r)) for o, r in pairs]
        ret_opt, ret_orig = ms_opt.result, ms_orig.result
        ret_check = _classify(ret_opt, ret_orig)
        leftover_ok = _leftover_ok(ms_opt.locals, ms_orig.locals, self.alignment)
        pairs_ok = _all_hold(pair_checks, bound_used, strict)
        ret_ok = _all_hold((ret_check,), bound_used, strict)

        # a float return check is the |difference| of two returned doubles
        observed_diff = ret_check if isinstance(ret_check, float) else None
        vacuous = observed_diff is not None and not (strict or observed_diff < inf)

        # audited means bound_used is the derived bound: only the checks can
        # make the two verdicts differ, and only if the leftover clause holds
        paper_disagrees = (
            self._audited
            and leftover_ok
            and (pairs_ok and ret_ok) != _all_hold((*pair_checks, ret_check), bound_paper, strict)
        )

        if pairs_ok and leftover_ok and ret_ok:
            status, clause, ids = Status.PASS, None, ()
        elif not (pairs_ok and leftover_ok):
            status, clause = Status.FAIL, "locals"
            ids = tuple(f"{o}~{r}" for (o, r), c in zip(pairs, pair_checks) if not _all_hold((c,), bound_used, strict))
        else:
            status, clause, ids = Status.FAIL, "return", ()

        return Verdict(
            status,
            args,
            failed_clause=clause,
            failed_ids=ids,
            observed_diff=observed_diff,
            bound_source_used=self._gate,
            bound_paper=bound_paper,
            bound_derived=bound_derived,
            poison_result=isinstance(ret_opt, Poison) and isinstance(ret_orig, Poison),
            vacuous=vacuous,
            audited=self._audited,
            paper_disagrees=paper_disagrees,
        )


# A checker holds no per-check state, and `check_reference` looks up
# `interp_cfg2` when it runs, so one checker serves every call on its pair.
_pair_checker = functools.lru_cache(maxsize=32)(EquivChecker)


def check_equiv(
    f_opt: FunctionDef,
    f_orig: FunctionDef,
    g: GlobalEnv,
    l: LocalEnv,
    args: tuple[Value, ...],
    align: AlignmentSpec,
    cfg: RefinementConfig = RefinementConfig(),
) -> Verdict:
    """Check one input tuple from the environments `g` and `l`; see EquivChecker for the batched form.

    The checker is built once per `(f_orig, f_opt, align, cfg)` and reused.
    """
    return _pair_checker(f_orig, f_opt, align, cfg).check_reference(args, g, l)
