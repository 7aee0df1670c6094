"""Shape checks for the JSON objects that requests and bundles are read from.

Each helper returns its value when it has the expected JSON shape and
otherwise raises ValueError naming the field, so that malformed input is
a validation error rather than a TypeError deep inside the arithmetic or
a bare KeyError.
A bool is never accepted as an integer: JSON true would otherwise read
as 1, and a float would be truncated to one.

Record is the base of the two value classes that are compared, the merge
shape and the access report: equal when of one class with equal fields.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

T = TypeVar("T")


class Record:
    """A value class whose instances are equal when they are of one class
    and their fields, the names in _fields, are equal; repr shows them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class _Object(dict):
    """A JSON object whose missing keys raise ValueError naming it."""

    def __init__(self, value: dict, what: str):
        super().__init__(value)
        self.what = what

    def __missing__(self, key):
        raise ValueError(f"{self.what} has no key {key!r}")


def as_object(value, what: str) -> dict:
    """A field that must be a JSON object; read a required key from the
    returned copy, so that its absence is a ValueError naming `what`."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")
    return _Object(value, what)


def as_int(value, what: str) -> int:
    """A field that must be a JSON integer."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def as_list(value, what: str, size: Optional[int] = None) -> list:
    """A field that must be a JSON list, of `size` items if given."""
    if not isinstance(value, list) or size is not None and len(value) != size:
        shape = f"a list of {size} items" if size is not None else "a list"
        raise ValueError(f"{what} must be {shape}, got {value!r}")
    return value


def as_ints(value, what: str, size: Optional[int] = None) -> tuple[int, ...]:
    """A field that must be a JSON list of integers."""
    items = as_list(value, what, size)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in items):
        raise ValueError(f"{what} must hold integers, got {value!r}")
    return tuple(items)


def as_encs(value, what: str, q: int, size: Optional[int] = None) -> tuple[int, ...]:
    """A field that must be a JSON list of element encodings of GF(q)."""
    encs = as_ints(value, what, size)
    if not all(0 <= e < q for e in encs):
        raise ValueError(f"{what} must hold elements of GF({q}) in [0, {q}), got {value!r}")
    return encs


def within(what: str, parse: Callable[..., T], *args) -> T:
    """parse(*args), naming the field `what` in any ValueError it raises."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc
