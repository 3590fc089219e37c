"""Bit-level codecs for IEEE-754 binary64 values, `Record` and `Double`.

Kept separate so both the IR layer (hex literals) and the numeric layer
(bit-pattern equality) can use them without importing each other.
`Double` is the one bit-exact double: an IR literal, an error-model
constant and a defined runtime value are all a `Double`.  `Record` is the
base of every value record in the package, `Double` included.
"""

from __future__ import annotations

import struct
from operator import attrgetter

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def bits_of(x: float) -> int:
    """Return the 64-bit pattern of `x` as an unsigned integer."""
    return _PACK_Q.unpack(_PACK_D.pack(x))[0]


def float_of_bits(b: int) -> float:
    """Return the binary64 value whose bit pattern is `b`."""
    if not 0 <= b < 1 << 64:
        raise ValueError(f"bit pattern out of range: {b!r}")
    return _PACK_D.unpack(_PACK_Q.pack(b))[0]


def hex_of(x: float) -> str:
    """Render `x` as a 16-digit hex bit pattern, e.g. 0x3FF0000000000000."""
    return f"0x{bits_of(x):016X}"


def dual_of(x: float | None) -> dict | None:
    """The JSON form of `x` in reports: its repr and its hex bit pattern."""
    if x is None:
        return None
    return {"decimal": repr(x), "hex": hex_of(x)}


def float_from_hex(s: str) -> float:
    """Parse a 16-digit hex bit pattern produced by `hex_of` (`int` alone also takes `_` and spaces)."""
    if len(s) != 18 or s[:2] not in ("0x", "0X") or not _HEX_DIGITS.issuperset(s[2:]):
        raise ValueError(f"expected 0x followed by 16 hex digits, got {s!r}")
    return float_of_bits(int(s[2:], 16))


def same_bits(x: float, y: float) -> bool:
    """Bit-pattern equality: distinguishes +0.0 from -0.0, equates identical NaNs."""
    return bits_of(x) == bits_of(y)


# sets a field past a record's frozen `__setattr__`: each record's `__init__` writes its fields with it
set_field = object.__setattr__


class Record:
    """A frozen value record: compared, hashed and printed by its fields, in `__slots__` order.

    A record declares its fields as `__slots__` and sets them in its own
    `__init__` through `set_field`.  Equality holds between records of the
    same class with equal fields, so `Add(x, y) != Mul(x, y)` and a record
    never equals a tuple; the hash agrees with it, `repr` reads
    `Cls(field=value, ...)`, and assigning or deleting a field raises
    AttributeError.  Every record shares these methods rather than having
    them generated per class: `dataclasses` builds each of its classes by
    executing generated source, which, with the modules it imports, would
    make up much of the package's start-up time.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # a record's field values: the value of its one field, a tuple of
        # several, or, for a record without fields, its class
        cls._values = attrgetter(*(cls.__dict__["__slots__"] or ("__class__",)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Double(Record):
    """A defined double value; equality is by bit pattern, so NaN == NaN and -0.0 != 0.0."""

    __slots__ = ("v",)

    def __init__(self, v: float):
        set_field(self, "v", v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Double):
            return NotImplemented
        return bits_of(self.v) == bits_of(other.v)

    def __hash__(self) -> int:
        return hash(bits_of(self.v))

    def __repr__(self) -> str:
        return f"Double({self.v!r})"

    def __str__(self) -> str:
        return hex_of(self.v)
