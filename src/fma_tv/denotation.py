"""Event-trace semantics for straight-line blocks.

A block denotes a sequence of events over a pair of environments: local
writes and reads, intrinsic calls, a silent step between consecutive
instructions, and the final return.  Local environments are association
lists with the most recent binding first, so shadowing and removal behave
like the list they are.  Poison propagates through every operation and the
intrinsic alike.

`interp_cfg2` is the reference semantics.  `compile_block` flattens a block
once into straight-line operations over a slot array of raw doubles; the
refinement checker runs that form on every sampled input and keeps the
interpreter for everything the compiled form does not cover (poison
arguments, pre-populated environments, unsupported input).  Both round with
the same `b64_*` operations, and tests hold them bit-identical.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .fp_semantics import Double, Poison, Value, b64_add, b64_fma, b64_mul, b64_sub, value_to_str
from .ir_core import (
    DType,
    Expr,
    FBinop,
    FBinopKind,
    FMULADD_F64,
    FunctionDef,
    GlobalId,
    Instruction,
    IntrinsicCall,
    LocalId,
    LocalRef,
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


@dataclass(frozen=True, slots=True)
class LocalWrite:
    id: LocalId
    value: Value

    def __str__(self) -> str:
        return f"LocalWrite {self.id} <- {value_to_str(self.value)}"


@dataclass(frozen=True, slots=True)
class LocalRead:
    id: LocalId
    value: Value

    def __str__(self) -> str:
        return f"LocalRead {self.id} -> {value_to_str(self.value)}"


@dataclass(frozen=True, slots=True)
class IntrinsicCallEvent:
    callee: GlobalId
    args: tuple[Value, ...]
    result: Value

    def __str__(self) -> str:
        args = ", ".join(value_to_str(a) for a in self.args)
        return f"IntrinsicCall {self.callee}({args}) -> {value_to_str(self.result)}"


@dataclass(frozen=True, slots=True)
class Tau:
    def __str__(self) -> str:
        return "Tau"


TAU = Tau()


@dataclass(frozen=True, slots=True)
class Ret:
    value: Value

    def __str__(self) -> str:
        return f"Ret {value_to_str(self.value)}"


Event = LocalWrite | LocalRead | IntrinsicCallEvent | Tau | Ret


@dataclass(frozen=True, slots=True)
class Trace:
    events: tuple[Event, ...]

    def __iter__(self):
        return iter(self.events)

    def render(self) -> str:
        return "\n".join(str(e) for e in self.events)


def strip_taus(t: Trace) -> Trace:
    """Drop silent steps; the observable content of a trace."""
    return Trace(tuple(e for e in t.events if not isinstance(e, Tau)))


# ---------------------------------------------------------------------------
# Environments and machine states


@dataclass(frozen=True, slots=True)
class LocalEnv:
    """Association list of local bindings, most recent first."""

    entries: tuple[tuple[LocalId, Value], ...] = ()

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

    def remove(self, ident: LocalId) -> LocalEnv:
        """Remove every binding of `ident`."""
        return LocalEnv(tuple((k, v) for k, v in self.entries if k != ident))

    def remove_all(self, idents) -> LocalEnv:
        drop = frozenset(idents)
        return LocalEnv(tuple((k, v) for k, v in self.entries if k not in drop))


@dataclass(frozen=True, slots=True)
class GlobalEnv:
    """Global bindings."""

    entries: tuple[tuple[GlobalId, Value], ...] = ()

    @classmethod
    def empty(cls) -> GlobalEnv:
        return cls()


@dataclass(frozen=True, slots=True)
class MachineState:
    globals: GlobalEnv
    locals: LocalEnv
    result: Value


# ---------------------------------------------------------------------------
# Evaluation


def eval_expr(e: Expr, locals_: LocalEnv) -> Value:
    """Value of an operand; raises UndefinedLocalError on a missing binding."""
    if isinstance(e, LocalRef):
        v = locals_.lookup(e.id)
        if v is None:
            raise UndefinedLocalError(e.id)
        return v
    return Double(e.value)


def llvm_fmuladd_f64(args: tuple[Value, ...]) -> Value:
    """The fused multiply-add intrinsic on the value domain.

    Exactly three double-typed values; any poison operand poisons the
    result, otherwise a single-rounding fma.
    """
    ok = len(args) == 3 and all(
        isinstance(a, Double) or (isinstance(a, Poison) and a.ty is DType.DOUBLE)
        for a in args
    )
    if not ok:
        raise IntrinsicError(INTRINSIC_INPUT_ERROR)
    if any(isinstance(a, Poison) for a in args):
        return Poison(DType.DOUBLE)
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
        if instr.fm_flags:
            raise EvalError(f"fast-math flags have no semantics here: {instr.dest}")
        lhs = _read_operand(instr.lhs, locals_, events)
        rhs = _read_operand(instr.rhs, locals_, events)
        if isinstance(lhs, Poison) or isinstance(rhs, Poison):
            result: Value = Poison(DType.DOUBLE)
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


# ---------------------------------------------------------------------------
# Compiled straight-line evaluation


@dataclass(frozen=True, slots=True)
class CompiledBlock:
    """A block flattened to operations over a slot array of raw doubles.

    The slots hold the parameters first, then the block's literal operands
    in program order, then one result per instruction.  Each entry of
    `code` is (op, lhs, rhs, addend) as slot indices, the addend -1 for
    two-operand ops; its destination is the next slot.  `entries` is the
    final local environment as (id, slot) pairs, most recent first, and
    `result` the slot of the returned operand.
    """

    consts: tuple[float, ...]
    code: tuple[tuple[Callable[..., float], int, int, int], ...]
    entries: tuple[tuple[LocalId, int], ...]
    result: int

    def slot_of(self, ident: LocalId) -> int | None:
        """Slot of the final binding of `ident`; None when it has none."""
        for k, slot in self.entries:
            if k == ident:
                return slot
        return None

    def run(self, xs: tuple[float, ...]) -> list[float]:
        """Every slot's value for the poison-free arguments `xs`."""
        s = [*xs, *self.consts]
        push = s.append
        for op, a, b, c in self.code:
            push(op(s[a], s[b]) if c < 0 else op(s[a], s[b], s[c]))
        return s


def compile_block(f: FunctionDef) -> CompiledBlock | None:
    """Flatten `f` for `CompiledBlock.run`.

    On poison-free arguments a run gives, bit for bit, the values that
    `interp_cfg2` binds and returns from empty environments.  Returns None
    where the interpreter raises: fast-math flags, a call other than the
    three-operand fmuladd, or an undefined local.
    """
    ops: list[tuple[Callable[..., float], tuple[Expr, ...], LocalId]] = []
    for instr in f.body.blk_code:
        if isinstance(instr, FBinop):
            if instr.fm_flags:
                return None
            ops.append((_BINOP[instr.kind], (instr.lhs, instr.rhs), instr.dest))
        elif instr.callee.text == FMULADD_F64 and len(instr.args) == 3:
            # read at compile time, so the fma implementation bound now runs
            ops.append((b64_fma, instr.args, instr.dest))
        else:
            return None
    ret = f.body.blk_term.value
    operands = [e for _, srcs, _ in ops for e in srcs] + [ret]
    consts = tuple(e.value for e in operands if not isinstance(e, LocalRef))

    n = len(f.params)
    env = {p: i for i, p in enumerate(f.params)}
    entries = [(p, i) for i, p in enumerate(f.params)]
    next_const = n
    next_result = n + len(consts)

    def slot(e: Expr) -> int | None:
        nonlocal next_const
        if isinstance(e, LocalRef):
            return env.get(e.id)
        next_const += 1
        return next_const - 1

    code = []
    for op, srcs, dest in ops:
        slots = [slot(e) for e in srcs]
        if None in slots:
            return None
        code.append((op, *slots) if len(slots) == 3 else (op, *slots, -1))
        env[dest] = next_result
        entries.append((dest, next_result))
        next_result += 1
    result = slot(ret)
    if result is None:
        return None
    return CompiledBlock(consts, tuple(code), tuple(reversed(entries)), result)
