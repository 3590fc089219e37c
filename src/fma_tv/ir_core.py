"""Abstract syntax and concrete syntax for a straight-line LLVM IR fragment.

The fragment covers single-basic-block function definitions over `double`:
`fmul`/`fadd`/`fsub` binary operations, calls to `@llvm.fmuladd.f64`, and a
`ret double` terminator.  Fast-math flags and calls to other callees are
parsed, and `unsupported_reason` is the one rule that says they have no
semantics here; `check_wellformed` checks structure only.  Attributes and
attribute groups, string attributes included, are parsed and discarded, as
are the `source_filename`, `target datalayout` and `target triple` header
lines.  A quoted string anywhere else is a parse error.  Control flow is
out of scope and is reported as such at parse time.  A literal operand is
a `Double` (defined in `_bits`), equal to another only if their bit
patterns are.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Callable, Collection
from ._bits import Double, Record, float_of_bits

FMULADD_F64 = "llvm.fmuladd.f64"

RET_ATTRS = frozenset({"noundef", "dso_local"})
PARAM_ATTRS = frozenset({"noundef"})
FN_ATTRS = frozenset({"local_unnamed_addr"})
FAST_MATH_FLAGS = frozenset(
    {"fast", "nnan", "ninf", "nsz", "arcp", "contract", "afn", "reassoc"}
)
_CONTROL_FLOW_OPS = frozenset({"br", "switch", "indirectbr", "invoke", "resume"})


# ---------------------------------------------------------------------------
# Identifiers


class LocalId(Record):
    """A local identifier: anonymous (`%4`) or named (`%x`)."""

    __slots__ = ("text",)

    @classmethod
    def anon(cls, n: int) -> LocalId:
        return cls(str(n))

    @classmethod
    def parse(cls, s: str) -> LocalId:
        if not s.startswith("%") or len(s) < 2:
            raise ValueError(f"not a local identifier: {s!r}")
        return cls(s[1:])

    def __str__(self) -> str:
        return "%" + self.text


class GlobalId(Record):
    """A global identifier such as `@f1` or `@llvm.fmuladd.f64`."""

    __slots__ = ("text",)

    def __str__(self) -> str:
        return "@" + self.text


# ---------------------------------------------------------------------------
# Expressions, instructions, blocks


class LocalRef(Record):
    __slots__ = ("id",)

    def __str__(self) -> str:
        return str(self.id)


Expr = Double | LocalRef


class FBinopKind(enum.Enum):
    FMUL = "fmul"
    FADD = "fadd"
    FSUB = "fsub"

    def __str__(self) -> str:
        return self.value


_BINOP_SPELLINGS = frozenset(k.value for k in FBinopKind)


class FBinop(Record):
    """`dest = <kind> [flags] double lhs, rhs`."""

    __slots__ = ("dest", "kind", "fm_flags", "lhs", "rhs")

    def __str__(self) -> str:
        flags = "".join(f + " " for f in self.fm_flags)
        return f"{self.dest} = {self.kind} {flags}double {self.lhs}, {self.rhs}"


class IntrinsicCall(Record):
    """`dest = [tail] call double @callee(double a, double b, double c)`."""

    __slots__ = ("dest", "callee", "args", "tail")

    def __str__(self) -> str:
        args = ", ".join(f"double {a}" for a in self.args)
        tail = "tail " if self.tail else ""
        return f"{self.dest} = {tail}call double {self.callee}({args})"


Instruction = FBinop | IntrinsicCall


def unsupported_reason(instr: Instruction) -> str | None:
    """Why `instr` has no semantics here, or None.

    No fast-math flag has semantics here, and the only callee is a
    three-argument `@llvm.fmuladd.f64`.
    """
    if isinstance(instr, FBinop):
        if instr.fm_flags:
            return f"fast-math flags present: {instr.dest}"
    elif instr.callee.text != FMULADD_F64 or len(instr.args) != 3:
        return f"unsupported call to {instr.callee}"
    return None


class Ret(Record):
    """`ret double <value>` terminator."""

    __slots__ = ("value",)

    def __str__(self) -> str:
        return f"ret double {self.value}"


class BasicBlock(Record):
    __slots__ = ("blk_id", "blk_phis", "blk_code", "blk_term")


class FunctionDef(Record):
    __slots__ = ("name", "params", "body")


# ---------------------------------------------------------------------------
# Errors


class ParseError(Exception):
    """Syntax error with 1-based source position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class WfKind(enum.Enum):
    UNDEFINED_LOCAL = "undefined local"
    DUPLICATE_DEST = "duplicate destination"
    NON_EMPTY_PHIS = "non-empty phi list"


class WellformednessError(Exception):
    """First wellformedness violation found in a function body."""

    def __init__(self, kind: WfKind, ident: str):
        super().__init__(f"{kind.value}: {ident}")
        self.kind = kind
        self.ident = ident


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>;[^\n]*)
  | (?P<nl>\n)
  | (?P<global>@[-a-zA-Z$._][-a-zA-Z$._0-9]*|@\d+)
  | (?P<local>%[-a-zA-Z$._][-a-zA-Z$._0-9]*|%\d+)
  | (?P<attrgroup>\#\d+)
  | (?P<hexnum>0x[0-9a-fA-F]+)
  | (?P<floatnum>-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+))
  | (?P<intnum>-?\d+)
  | (?P<word>[a-zA-Z_][a-zA-Z_0-9.]*)
  | (?P<string>"[^"\n]*")
  | (?P<punct>[(){}=,:])
    """,
    re.VERBOSE,
)


class _Token(Record):
    __slots__ = ("kind", "text", "line", "col")


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, pos - line_start + 1, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        assert kind is not None
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    # -- token plumbing

    def _peek(self, ahead: int = 0) -> _Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def _at(self, kind: str, texts: str | Collection[str] | None = None, ahead: int = 0) -> bool:
        """Whether the token `ahead` places on is a `kind` token spelled as (one of) `texts`."""
        tok = self._peek(ahead)
        return tok is not None and tok.kind == kind and (
            texts is None or (tok.text == texts if isinstance(texts, str) else tok.text in texts))

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise self._at_end("unexpected end of input")
        self.pos += 1
        return tok

    def _at_end(self, message: str) -> ParseError:
        # reached only after a token was read, so there is a last token
        last = self.tokens[-1]
        return ParseError(last.line, last.col + len(last.text), message)

    def _error(self, tok: _Token | None, message: str) -> ParseError:
        if tok is None:
            return self._at_end(f"{message} (found end of input)")
        return ParseError(tok.line, tok.col, f"{message} (found {tok.text!r})")

    def _control_flow(self) -> ParseError:
        tok = self._peek()
        return ParseError(tok.line, tok.col, "unsupported: control flow")

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        if not self._at(kind, text):
            raise self._error(self._peek(), f"expected {text or kind!r}")
        return self._next()

    # -- grammar

    def parse_module(self) -> tuple[FunctionDef, ...]:
        functions: list[FunctionDef] = []
        while self._peek() is not None:
            if self._at("word", "define"):
                functions.append(self._parse_define())
            elif self._at("word", "declare"):
                self._skip_declare()
            elif self._at("word", "attributes"):
                self._skip_attributes()
            elif self._at("word", "source_filename") or (
                    self._at("word", "target") and self._at("word", ("datalayout", "triple"), ahead=1)):
                self._skip_header()
            else:
                raise self._error(self._peek(), "expected 'define' or 'declare'")
        return tuple(functions)

    def _parse_define(self) -> FunctionDef:
        name = self._parse_head("define")
        params = self._parse_doubles(lambda i: LocalId(self._next().text[1:]) if self._at("local") else LocalId.anon(i))
        self._skip_fn_attrs()
        self._expect("punct", "{")
        block = self._parse_block(len(params))
        self._expect("punct", "}")
        return FunctionDef(name, params, block)

    def _parse_head(self, keyword: str) -> GlobalId:
        """`<keyword> [attrs] double @name`, which `define`, `declare` and `call` share."""
        self._expect("word", keyword)
        self._parse_attr_words(RET_ATTRS)
        self._expect("word", "double")
        return GlobalId(self._expect("global").text[1:])

    def _parse_doubles(self, item: Callable[[int], object]) -> tuple:
        """`( double [noundef] X, ... )`, where `item(i)` reads the i-th X."""
        self._expect("punct", "(")
        items = []
        if not self._at("punct", ")"):
            while True:
                self._expect("word", "double")
                self._parse_attr_words(PARAM_ATTRS)
                items.append(item(len(items)))
                if not self._at("punct", ","):
                    break
                self._next()
        self._expect("punct", ")")
        return tuple(items)

    def _parse_attr_words(self, allowed: frozenset[str]) -> tuple[str, ...]:
        start = self.pos
        while self._at("word", allowed):
            self._next()
        return tuple(tok.text for tok in self.tokens[start:self.pos])

    def _skip_fn_attrs(self) -> None:
        while self._at("attrgroup") or self._at("word", FN_ATTRS):
            self._next()

    def _skip_declare(self) -> None:
        # `declare double @callee(...)`: checked for shape, then dropped
        self._parse_head("declare")
        self._expect("punct", "(")
        while not self._at("punct", ")"):
            if self._at("punct", ("{", "}")):
                raise self._error(self._peek(), "expected ')'")
            self._next()
        self._next()
        self._skip_fn_attrs()

    def _skip_header(self) -> None:
        # `source_filename = "..."`, `target datalayout = "..."`, `target triple = "..."`
        if self._next().text == "target":
            self._next()
        self._expect("punct", "=")
        self._expect("string")

    def _skip_attributes(self) -> None:
        # `attributes #0 = { ... }` trailer emitted by clang, string attributes
        # such as `"frame-pointer"="none"` included; contents ignored.
        self._expect("word", "attributes")
        self._expect("attrgroup")
        self._expect("punct", "=")
        self._expect("punct", "{")
        depth = 1
        while depth:
            depth += self._at("punct", "{") - self._at("punct", "}")
            self._next()

    def _parse_block(self, n_params: int) -> BasicBlock:
        code: list[Instruction] = []
        while True:
            if self._at("punct", ":", ahead=1) or self._at("word", _CONTROL_FLOW_OPS):
                raise self._control_flow()
            if self._at("word", "ret"):
                break
            if not self._at("local"):
                raise self._error(self._peek(), "expected instruction or 'ret'")
            code.append(self._parse_instruction())
        self._next()
        self._expect("word", "double")
        term = Ret(self._parse_expr())
        # a second statement after `ret` would open another block
        if self._at("word") or self._at("intnum") or self._at("local"):
            raise self._control_flow()
        return BasicBlock(LocalId.anon(n_params), (), tuple(code), term)

    def _parse_instruction(self) -> Instruction:
        dest = LocalId(self._expect("local").text[1:])
        self._expect("punct", "=")
        if self._at("word", _BINOP_SPELLINGS):
            kind = FBinopKind(self._next().text)
            flags = self._parse_attr_words(FAST_MATH_FLAGS)
            self._expect("word", "double")
            lhs = self._parse_expr()
            self._expect("punct", ",")
            return FBinop(dest, kind, flags, lhs, self._parse_expr())
        if self._at("word", ("tail", "call")):
            if tail := self._at("word", "tail"):
                self._next()
            callee = self._parse_head("call")
            args = self._parse_doubles(lambda _: self._parse_expr())
            while self._at("attrgroup"):
                self._next()
            return IntrinsicCall(dest, callee, args, tail)
        if self._at("word", _CONTROL_FLOW_OPS):
            raise self._control_flow()
        tok = self._peek()
        raise self._error(tok, "expected opcode" if tok is None else "unknown instruction opcode")

    def _parse_expr(self) -> Expr:
        tok = self._next()
        if tok.kind == "local":
            return LocalRef(LocalId(tok.text[1:]))
        if tok.kind == "hexnum":
            digits = tok.text[2:]
            if len(digits) != 16:
                raise ParseError(
                    tok.line, tok.col, f"hex double literal needs 16 digits, got {len(digits)}"
                )
            return Double(float_of_bits(int(digits, 16)))
        if tok.kind == "floatnum":
            return Double(float(tok.text))
        if tok.kind == "intnum":
            raise ParseError(
                tok.line, tok.col, f"integer literal {tok.text!r} is not a valid double literal"
            )
        raise self._error(tok, "expected operand")


def parse_module(text: str) -> tuple[FunctionDef, ...]:
    """Parse module text into function definitions (declares are dropped)."""
    return _Parser(text).parse_module()


# ---------------------------------------------------------------------------
# Printer

def print_block(f: FunctionDef) -> str:
    """Render a function definition in canonical form.

    Attributes are dropped and literals come out as hex bit patterns, so the
    output reparses to an equal FunctionDef.
    """
    params = ", ".join(f"double {p}" for p in f.params)
    lines = [f"define double {f.name}({params}) {{"]
    for instr in f.body.blk_code:
        lines.append(f"  {instr}")
    lines.append(f"  {f.body.blk_term}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Wellformedness

def check_wellformed(f: FunctionDef) -> None:
    """Raise WellformednessError at the first structural violation, in source order.

    Checks: empty phi list, distinct parameter names, every operand defined
    before use, no destination redefined.  Whether an instruction has
    semantics here is `unsupported_reason`'s question, not this one's.
    """
    if f.body.blk_phis:
        raise WellformednessError(WfKind.NON_EMPTY_PHIS, str(f.body.blk_id))
    defined: set[LocalId] = set()
    for p in f.params:
        if p in defined:
            raise WellformednessError(WfKind.DUPLICATE_DEST, str(p))
        defined.add(p)
    for instr in f.body.blk_code:
        operands = (instr.lhs, instr.rhs) if isinstance(instr, FBinop) else instr.args
        for op in operands:
            if isinstance(op, LocalRef) and op.id not in defined:
                raise WellformednessError(WfKind.UNDEFINED_LOCAL, str(op.id))
        if instr.dest in defined:
            raise WellformednessError(WfKind.DUPLICATE_DEST, str(instr.dest))
        defined.add(instr.dest)
    ret = f.body.blk_term.value
    if isinstance(ret, LocalRef) and ret.id not in defined:
        raise WellformednessError(WfKind.UNDEFINED_LOCAL, str(ret.id))
