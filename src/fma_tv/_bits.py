"""Bit-level codecs for IEEE-754 binary64 values.

Kept separate so both the IR layer (hex literals) and the numeric layer
(bit-pattern equality) can use them without importing each other.
"""

from __future__ import annotations

import struct

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
