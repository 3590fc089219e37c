"""Event-trace semantics for straight-line blocks.

A block denotes a sequence of events over a pair of environments: local
writes and reads, intrinsic calls, a silent step between consecutive
instructions, and the final return.  Local environments are association
lists with the most recent binding first, so shadowing and removal behave
like the list they are.  Poison propagates through every operation and the
intrinsic alike.

`interp_cfg2` is the reference semantics.  The refinement checker generates
straight-line code from the same blocks for samples of raw doubles, rounding
as the `b64_*` operations do, and tests hold the two bit-identical.
"""

from __future__ import annotations

from ._bits import Record
from .fp_semantics import Double, Poison, Value, b64_add, b64_fma, b64_mul, b64_sub, value_to_str
from .ir_core import (
    Expr,
    FBinop,
    FBinopKind,
    FMULADD_F64,
    FunctionDef,
    GlobalId,
    Instruction,
    LocalId,
    LocalRef,
    unsupported_reason,
)

_BINOP = {FBinopKind.FMUL: b64_mul, FBinopKind.FADD: b64_add, FBinopKind.FSUB: b64_sub}

INTRINSIC_INPUT_ERROR = "llvm_fmuladd_f64 got incorrect inputs"


class EvalError(Exception):
    """Runtime failure while denoting a block."""


class UndefinedLocalError(EvalError):
    def __init__(self, ident: LocalId):
        super().__init__(f"undefined local {ident}")
        self.ident = ident


class IntrinsicError(EvalError):
    """The intrinsic was applied to inputs outside its signature."""


class UnknownIntrinsicError(EvalError):
    def __init__(self, callee: GlobalId):
        super().__init__(f"no semantics for callee {callee}")
        self.callee = callee


# ---------------------------------------------------------------------------
# Events and traces


class LocalWrite(Record):
    __slots__ = ("id", "value")

    def __str__(self) -> str:
        return f"LocalWrite {self.id} <- {value_to_str(self.value)}"


class LocalRead(Record):
    __slots__ = ("id", "value")

    def __str__(self) -> str:
        return f"LocalRead {self.id} -> {value_to_str(self.value)}"


class IntrinsicCallEvent(Record):
    __slots__ = ("callee", "args", "result")

    def __str__(self) -> str:
        args = ", ".join(value_to_str(a) for a in self.args)
        return f"IntrinsicCall {self.callee}({args}) -> {value_to_str(self.result)}"


class Tau(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "Tau"


TAU = Tau()


class Ret(Record):
    __slots__ = ("value",)

    def __str__(self) -> str:
        return f"Ret {value_to_str(self.value)}"


Event = LocalWrite | LocalRead | IntrinsicCallEvent | Tau | Ret


class Trace(Record):
    __slots__ = ("events",)

    def __iter__(self):
        return iter(self.events)

    def render(self) -> str:
        return "\n".join(str(e) for e in self.events)


def strip_taus(t: Trace) -> Trace:
    """Drop silent steps; the observable content of a trace."""
    return Trace(tuple(e for e in t.events if not isinstance(e, Tau)))


# ---------------------------------------------------------------------------
# Environments and machine states


class LocalEnv(Record):
    """Association list of local bindings, most recent first."""

    __slots__ = ("entries",)

    @classmethod
    def empty(cls) -> LocalEnv:
        return cls(())

    def lookup(self, ident: LocalId) -> Value | None:
        for k, v in self.entries:
            if k == ident:
                return v
        return None

    def bind(self, ident: LocalId, value: Value) -> LocalEnv:
        return LocalEnv(((ident, value),) + self.entries)

    def remove_all(self, idents) -> LocalEnv:
        drop = frozenset(idents)
        return LocalEnv(tuple((k, v) for k, v in self.entries if k not in drop))


class GlobalEnv(Record):
    """Global bindings."""

    __slots__ = ("entries",)

    @classmethod
    def empty(cls) -> GlobalEnv:
        return cls(())


class MachineState(Record):
    __slots__ = ("globals", "locals", "result")


# ---------------------------------------------------------------------------
# Evaluation


def eval_expr(e: Expr, locals_: LocalEnv) -> Value:
    """Value of an operand; raises UndefinedLocalError on a missing binding."""
    if isinstance(e, LocalRef):
        v = locals_.lookup(e.id)
        if v is None:
            raise UndefinedLocalError(e.id)
        return v
    return e


def llvm_fmuladd_f64(args: tuple[Value, ...]) -> Value:
    """The fused multiply-add intrinsic on the value domain.

    Exactly three double-typed values; any poison operand poisons the
    result, otherwise a single-rounding fma.
    """
    if len(args) != 3 or not all(isinstance(a, (Double, Poison)) for a in args):
        raise IntrinsicError(INTRINSIC_INPUT_ERROR)
    if any(isinstance(a, Poison) for a in args):
        return Poison()
    a, b, c = args
    return Double(b64_fma(a.v, b.v, c.v))


def _read_operand(e: Expr, locals_: LocalEnv, events: list[Event]) -> Value:
    v = eval_expr(e, locals_)
    if isinstance(e, LocalRef):
        events.append(LocalRead(e.id, v))
    return v


def denote_instr(instr: Instruction, locals_: LocalEnv) -> tuple[LocalEnv, tuple[Event, ...]]:
    """Denote one instruction: the updated environment and emitted events."""
    events: list[Event] = []
    if isinstance(instr, FBinop):
        if unsupported_reason(instr):
            raise EvalError(f"fast-math flags have no semantics here: {instr.dest}")
        lhs = _read_operand(instr.lhs, locals_, events)
        rhs = _read_operand(instr.rhs, locals_, events)
        if isinstance(lhs, Poison) or isinstance(rhs, Poison):
            result: Value = Poison()
        else:
            result = Double(_BINOP[instr.kind](lhs.v, rhs.v))
    else:
        if instr.callee.text != FMULADD_F64:
            raise UnknownIntrinsicError(instr.callee)
        args = tuple(_read_operand(a, locals_, events) for a in instr.args)
        result = llvm_fmuladd_f64(args)
        events.append(IntrinsicCallEvent(instr.callee, args, result))
    events.append(LocalWrite(instr.dest, result))
    return locals_.bind(instr.dest, result), tuple(events)


def _run_block(f: FunctionDef, locals_: LocalEnv) -> tuple[LocalEnv, Value, Trace]:
    events: list[Event] = []
    for i, instr in enumerate(f.body.blk_code):
        if i:
            events.append(TAU)
        locals_, evs = denote_instr(instr, locals_)
        events.extend(evs)
    ret_val = _read_operand(f.body.blk_term.value, locals_, events)
    events.append(Ret(ret_val))
    return locals_, ret_val, Trace(tuple(events))


def _bind_params(f: FunctionDef, args: tuple[Value, ...], base: LocalEnv) -> LocalEnv:
    if len(args) != len(f.params):
        raise ValueError(f"{f.name} takes {len(f.params)} arguments, got {len(args)}")
    locals_ = base
    for p, a in zip(f.params, args):
        locals_ = locals_.bind(p, a)
    return locals_


def denote_block(f: FunctionDef, args: tuple[Value, ...]) -> Trace:
    """The event trace of running `f` on `args` from empty environments."""
    _, _, trace = _run_block(f, _bind_params(f, args, LocalEnv.empty()))
    return trace


def interp_cfg2(
    f: FunctionDef, g: GlobalEnv, l: LocalEnv, args: tuple[Value, ...]
) -> tuple[MachineState, Trace]:
    """Run `f` on `args` over initial environments; final state plus trace."""
    locals_, ret_val, trace = _run_block(f, _bind_params(f, args, l))
    return MachineState(g, locals_, ret_val), trace
