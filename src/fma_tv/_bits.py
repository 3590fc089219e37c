"""Bit-level codecs for IEEE-754 binary64 values, and `Double`.

Kept separate so both the IR layer (hex literals) and the numeric layer
(bit-pattern equality) can use them without importing each other.
`Double` is the one bit-exact double: an IR literal, an error-model
constant and a defined runtime value are all a `Double`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True, eq=False)
class Double:
    """A defined double value; equality is by bit pattern, so NaN == NaN and -0.0 != 0.0."""

    v: float

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
