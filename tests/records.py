"""Test-side helpers over a record's fields, the `__slots__` of a `fma_tv._bits.Record`."""

from __future__ import annotations


def fields(record) -> tuple[str, ...]:
    """The field names of a record, or of a record class, in order."""
    return record.__slots__


def replace(record, **changes):
    """A record of the same class with `changes` applied to its fields."""
    return type(record)(**{**{name: getattr(record, name) for name in fields(record)}, **changes})
