"""Shared hypothesis strategies: doubles, expression trees, random blocks and block pairs."""

from __future__ import annotations

import math

from hypothesis import strategies as st

from fma_tv.error_model import Add, Const, Fma, Mul, Var
from fma_tv.ir_core import (
    BasicBlock,
    DoubleLit,
    FBinop,
    FBinopKind,
    FunctionDef,
    GlobalId,
    IntrinsicCall,
    LocalId,
    LocalRef,
    Ret,
)
from fma_tv.refinement import AlignmentSpec

# every bit pattern, via the float strategy's full-width mode
any_double = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
finite_double = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
# uniform over binades rather than bit patterns: each of the 2,098 exponents
# of a finite nonzero double is as likely, subnormal ones included
binade_double = st.builds(
    lambda sign, e, m: sign * math.ldexp(float((1 << 52) | m), e - 52),
    st.sampled_from((1.0, -1.0)),
    st.integers(min_value=-1074, max_value=1023),
    st.integers(min_value=0, max_value=(1 << 52) - 1),
)
# magnitudes that keep products of a few operands comfortably finite
moderate_double = st.floats(
    min_value=-1e50, max_value=1e50, allow_nan=False, allow_infinity=False
)


def expr_trees(var_names=("a", "b", "c"), max_leaves=6, leaf_consts=True):
    """Expression trees whose leaves cover every name in `var_names`."""
    leaf = st.sampled_from([Var(v) for v in var_names])
    if leaf_consts:
        leaf = st.one_of(leaf, moderate_double.map(Const))

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Add(*t)),
            st.tuples(children, children).map(lambda t: Mul(*t)),
            st.tuples(children, children, children).map(lambda t: Fma(*t)),
        )

    tree = st.recursive(leaf, extend, max_leaves=max_leaves)

    def cover_all(e):
        # wrap so the tree reads every variable exactly as required
        for v in var_names:
            e = Add(e, Mul(Const(0.0), Var(v)))
        return e

    return tree.map(cover_all)


def contract(e, picks):
    """Rewrite some Add(Mul(l, r), c) nodes into Fma(l, r, c) nodes.

    Both forms compute the same real-valued function, so a (tree,
    contraction) pair is a valid derive_bound test subject.  `picks` is an
    infinite-ish iterator of booleans deciding each eligible site.
    """
    if isinstance(e, (Var, Const)):
        return e
    if isinstance(e, Fma):
        return Fma(contract(e.a, picks), contract(e.b, picks), contract(e.c, picks))
    if isinstance(e, Mul):
        return Mul(contract(e.lhs, picks), contract(e.rhs, picks))
    lhs = contract(e.lhs, picks)
    rhs = contract(e.rhs, picks)
    if isinstance(lhs, Mul) and next(picks):
        return Fma(lhs.lhs, lhs.rhs, rhs)
    if isinstance(rhs, Mul) and next(picks):
        return Fma(rhs.lhs, rhs.rhs, lhs)
    return Add(lhs, rhs)


@st.composite
def function_defs(draw, n_params=None, allow_fsub=False):
    """Random well-formed single-block functions in the supported fragment."""
    if n_params is None:
        n_params = draw(st.integers(min_value=0, max_value=4))
    params = tuple(LocalId.anon(i) for i in range(n_params))
    defined = list(params)
    code = []
    kinds = [FBinopKind.FMUL, FBinopKind.FADD] + (
        [FBinopKind.FSUB] if allow_fsub else []
    )
    n_instr = draw(st.integers(min_value=0, max_value=5))
    next_id = n_params + 1  # the block id itself is Anon(n_params)

    def operand():
        if defined and draw(st.booleans()):
            return LocalRef(draw(st.sampled_from(defined)))
        return DoubleLit(draw(moderate_double))

    for _ in range(n_instr):
        dest = LocalId.anon(next_id)
        next_id += 1
        if draw(st.booleans()):
            instr = FBinop(dest, draw(st.sampled_from(kinds)), (), operand(), operand())
        else:
            instr = IntrinsicCall(
                dest,
                GlobalId("llvm.fmuladd.f64"),
                (operand(), operand(), operand()),
                draw(st.booleans()),
            )
        code.append(instr)
        defined.append(dest)
    if defined and draw(st.booleans()):
        ret = Ret(LocalRef(draw(st.sampled_from(defined))))
    else:
        ret = Ret(DoubleLit(draw(moderate_double)))
    body = BasicBlock(LocalId.anon(n_params), (), tuple(code), ret)
    return FunctionDef(GlobalId("f"), params, body)


@st.composite
def block_pairs(draw):
    """Two random blocks over the same parameters, with a random alignment.

    The fresh sets and pairs draw from the ids the blocks may bind plus one
    they never do, so pairs can miss and leftovers can differ in ids or bits.
    """
    n = draw(st.integers(min_value=0, max_value=3))
    opt = draw(function_defs(n_params=n, allow_fsub=True))
    orig = draw(function_defs(n_params=n, allow_fsub=True))
    ids = [LocalId.anon(k) for k in range(n + 1, n + 7)]
    fresh_opt = draw(st.frozensets(st.sampled_from(ids)))
    fresh_orig = draw(st.frozensets(st.sampled_from(ids)))
    pairs = ()
    if fresh_opt and fresh_orig:
        pairs = tuple(draw(st.lists(
            st.tuples(st.sampled_from(sorted(fresh_opt, key=str)),
                      st.sampled_from(sorted(fresh_orig, key=str))),
            max_size=2,
        )))
    return opt, orig, AlignmentSpec(pairs, fresh_opt, fresh_orig)
