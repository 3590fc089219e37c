"""Abstract syntax and concrete syntax for a straight-line LLVM IR fragment.

The fragment covers single-basic-block function definitions over `double`:
`fmul`/`fadd`/`fsub` binary operations, calls to `@llvm.fmuladd.f64`, and a
`ret double` terminator.  Fast-math flags are parsed but rejected by the
wellformedness check; attributes and attribute groups are parsed and
discarded.  Control flow is out of scope and is reported as such at parse
time.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from ._bits import bits_of, float_of_bits, hex_of

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


@dataclass(frozen=True, slots=True)
class LocalId:
    """A local identifier: anonymous (`%4`) or named (`%x`)."""

    text: str

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


@dataclass(frozen=True, slots=True)
class GlobalId:
    """A global identifier such as `@f1` or `@llvm.fmuladd.f64`."""

    text: str

    def __str__(self) -> str:
        return "@" + self.text


# ---------------------------------------------------------------------------
# Expressions, instructions, blocks


@dataclass(frozen=True, slots=True, eq=False)
class DoubleLit:
    """A `double` literal; equality is by bit pattern, not float comparison."""

    value: float

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DoubleLit):
            return NotImplemented
        return bits_of(self.value) == bits_of(other.value)

    def __hash__(self) -> int:
        return hash(bits_of(self.value))

    def __str__(self) -> str:
        return hex_of(self.value)


@dataclass(frozen=True, slots=True)
class LocalRef:
    id: LocalId

    def __str__(self) -> str:
        return str(self.id)


Expr = DoubleLit | LocalRef


def expr_refs(e: Expr) -> tuple[LocalId, ...]:
    """Local identifiers read by an operand expression."""
    return (e.id,) if isinstance(e, LocalRef) else ()


class FBinopKind(enum.Enum):
    FMUL = "fmul"
    FADD = "fadd"
    FSUB = "fsub"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class FBinop:
    """`dest = <kind> [flags] double lhs, rhs`."""

    dest: LocalId
    kind: FBinopKind
    fm_flags: tuple[str, ...]
    lhs: Expr
    rhs: Expr

    def __str__(self) -> str:
        flags = "".join(f + " " for f in self.fm_flags)
        return f"{self.dest} = {self.kind} {flags}double {self.lhs}, {self.rhs}"


@dataclass(frozen=True, slots=True)
class IntrinsicCall:
    """`dest = [tail] call double @callee(double a, double b, double c)`."""

    dest: LocalId
    callee: GlobalId
    args: tuple[Expr, ...]
    tail: bool

    def __str__(self) -> str:
        args = ", ".join(f"double {a}" for a in self.args)
        tail = "tail " if self.tail else ""
        return f"{self.dest} = {tail}call double {self.callee}({args})"


Instruction = FBinop | IntrinsicCall


@dataclass(frozen=True, slots=True)
class Ret:
    """`ret double <value>` terminator."""

    value: Expr

    def __str__(self) -> str:
        return f"ret double {self.value}"


Terminator = Ret


@dataclass(frozen=True, slots=True)
class BasicBlock:
    blk_id: LocalId
    blk_phis: tuple[()]
    blk_code: tuple[Instruction, ...]
    blk_term: Terminator


@dataclass(frozen=True, slots=True)
class FunctionDef:
    name: GlobalId
    params: tuple[LocalId, ...]
    body: BasicBlock


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
    UNSUPPORTED_FLAGS = "fast-math flags present"


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
  | (?P<punct>[(){}=,:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_EOF = "end of input"


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

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("word", "", 1, 1)
            raise ParseError(last.line, last.col + len(last.text), f"unexpected {_EOF}")
        self.pos += 1
        return tok

    def _error(self, tok: _Token | None, message: str) -> ParseError:
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("word", "", 1, 1)
            return ParseError(last.line, last.col + len(last.text), f"{message} (found {_EOF})")
        return ParseError(tok.line, tok.col, f"{message} (found {tok.text!r})")

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self._peek()
        want = text if text is not None else kind
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            raise self._error(tok, f"expected {want!r}")
        return self._next()

    # -- grammar

    def parse_module(self) -> tuple[FunctionDef, ...]:
        functions: list[FunctionDef] = []
        while (tok := self._peek()) is not None:
            if tok.kind == "word" and tok.text == "define":
                functions.append(self._parse_define())
            elif tok.kind == "word" and tok.text == "declare":
                self._skip_declare()
            elif tok.kind == "word" and tok.text == "attributes":
                self._skip_attributes()
            else:
                raise self._error(tok, "expected 'define' or 'declare'")
        return tuple(functions)

    def _parse_define(self) -> FunctionDef:
        self._expect("word", "define")
        self._parse_attr_words(RET_ATTRS)
        self._expect("word", "double")
        name = GlobalId(self._expect("global").text[1:])
        self._expect("punct", "(")
        params = self._parse_params()
        self._expect("punct", ")")
        self._skip_fn_attrs()
        self._expect("punct", "{")
        block = self._parse_block(len(params))
        self._expect("punct", "}")
        return FunctionDef(name, tuple(params), block)

    def _parse_attr_words(self, allowed: frozenset[str]) -> list[str]:
        out = []
        while (tok := self._peek()) is not None and tok.kind == "word" and tok.text in allowed:
            out.append(self._next().text)
        return out

    def _skip_fn_attrs(self) -> None:
        while (tok := self._peek()) is not None and (
            tok.kind == "attrgroup" or (tok.kind == "word" and tok.text in FN_ATTRS)
        ):
            self._next()

    def _parse_params(self) -> list[LocalId]:
        params: list[LocalId] = []
        if self._peek() is not None and self._peek().kind == "punct" and self._peek().text == ")":
            return params
        while True:
            self._expect("word", "double")
            self._parse_attr_words(PARAM_ATTRS)
            tok = self._peek()
            if tok is not None and tok.kind == "local":
                params.append(LocalId(self._next().text[1:]))
            else:
                params.append(LocalId.anon(len(params)))
            tok = self._peek()
            if tok is not None and tok.kind == "punct" and tok.text == ",":
                self._next()
                continue
            return params

    def _skip_declare(self) -> None:
        # `declare double @callee(...)`: checked for shape, then dropped
        self._expect("word", "declare")
        self._parse_attr_words(RET_ATTRS)
        self._expect("word", "double")
        self._expect("global")
        self._expect("punct", "(")
        while True:
            tok = self._next()
            if tok.kind == "punct" and tok.text == ")":
                break
            if tok.kind == "punct" and tok.text in "{}":
                raise self._error(tok, "expected ')'")
        self._skip_fn_attrs()

    def _skip_attributes(self) -> None:
        # `attributes #0 = { ... }` trailer emitted by clang; contents ignored.
        self._expect("word", "attributes")
        self._expect("attrgroup")
        self._expect("punct", "=")
        self._expect("punct", "{")
        depth = 1
        while depth:
            tok = self._next()
            if tok.kind == "punct" and tok.text == "{":
                depth += 1
            elif tok.kind == "punct" and tok.text == "}":
                depth -= 1

    def _parse_block(self, n_params: int) -> BasicBlock:
        code: list[Instruction] = []
        term: Terminator | None = None
        while term is None:
            tok = self._peek()
            if tok is None:
                raise self._error(tok, "expected instruction or 'ret'")
            nxt = self._peek(1)
            if nxt is not None and nxt.kind == "punct" and nxt.text == ":":
                raise ParseError(tok.line, tok.col, "unsupported: control flow")
            if tok.kind == "word" and tok.text in _CONTROL_FLOW_OPS:
                raise ParseError(tok.line, tok.col, "unsupported: control flow")
            if tok.kind == "word" and tok.text == "ret":
                term = self._parse_ret()
            elif tok.kind == "local":
                code.append(self._parse_instruction())
            else:
                raise self._error(tok, "expected instruction or 'ret'")
        tok = self._peek()
        if tok is not None and not (tok.kind == "punct" and tok.text == "}"):
            if tok.kind in ("word", "intnum", "local"):
                raise ParseError(tok.line, tok.col, "unsupported: control flow")
            raise self._error(tok, "expected '}'")
        return BasicBlock(LocalId.anon(n_params), (), tuple(code), term)

    def _parse_instruction(self) -> Instruction:
        dest = LocalId(self._expect("local").text[1:])
        self._expect("punct", "=")
        tok = self._peek()
        if tok is None:
            raise self._error(tok, "expected opcode")
        if tok.kind == "word" and tok.text in ("fmul", "fadd", "fsub"):
            kind = FBinopKind(self._next().text)
            flags = tuple(self._parse_attr_words(FAST_MATH_FLAGS))
            self._expect("word", "double")
            lhs = self._parse_expr()
            self._expect("punct", ",")
            rhs = self._parse_expr()
            return FBinop(dest, kind, flags, lhs, rhs)
        if tok.kind == "word" and tok.text in ("tail", "call"):
            tail = False
            if tok.text == "tail":
                self._next()
                tail = True
            self._expect("word", "call")
            self._parse_attr_words(RET_ATTRS)
            self._expect("word", "double")
            callee = GlobalId(self._expect("global").text[1:])
            self._expect("punct", "(")
            args: list[Expr] = []
            tok = self._peek()
            if not (tok is not None and tok.kind == "punct" and tok.text == ")"):
                while True:
                    self._expect("word", "double")
                    self._parse_attr_words(PARAM_ATTRS)
                    args.append(self._parse_expr())
                    tok = self._peek()
                    if tok is not None and tok.kind == "punct" and tok.text == ",":
                        self._next()
                        continue
                    break
            self._expect("punct", ")")
            while (tok := self._peek()) is not None and tok.kind == "attrgroup":
                self._next()
            return IntrinsicCall(dest, callee, tuple(args), tail)
        if tok.kind == "word" and tok.text in _CONTROL_FLOW_OPS:
            raise ParseError(tok.line, tok.col, "unsupported: control flow")
        raise self._error(tok, "unknown instruction opcode")

    def _parse_ret(self) -> Terminator:
        self._expect("word", "ret")
        self._expect("word", "double")
        return Ret(self._parse_expr())

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
            return DoubleLit(float_of_bits(int(digits, 16)))
        if tok.kind == "floatnum":
            return DoubleLit(float(tok.text))
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
    before use, no destination redefined.  A fast-math flag raises only
    after these, at the first flagged instruction, so structure wins.
    """
    if f.body.blk_phis:
        raise WellformednessError(WfKind.NON_EMPTY_PHIS, str(f.body.blk_id))
    defined: set[LocalId] = set()
    for p in f.params:
        if p in defined:
            raise WellformednessError(WfKind.DUPLICATE_DEST, str(p))
        defined.add(p)
    flagged: LocalId | None = None
    for instr in f.body.blk_code:
        if isinstance(instr, FBinop):
            if instr.fm_flags and flagged is None:
                flagged = instr.dest
            operands: tuple[Expr, ...] = (instr.lhs, instr.rhs)
        else:
            operands = instr.args
        for op in operands:
            for ref in expr_refs(op):
                if ref not in defined:
                    raise WellformednessError(WfKind.UNDEFINED_LOCAL, str(ref))
        if instr.dest in defined:
            raise WellformednessError(WfKind.DUPLICATE_DEST, str(instr.dest))
        defined.add(instr.dest)
    for ref in expr_refs(f.body.blk_term.value):
        if ref not in defined:
            raise WellformednessError(WfKind.UNDEFINED_LOCAL, str(ref))
    if flagged is not None:
        raise WellformednessError(WfKind.UNSUPPORTED_FLAGS, str(flagged))
