"""Dataclass fields as the schema of the files built from them.

A config section, a defect-list row and each part of a manifest hold the
fields of one dataclass: the field's name is the key, its annotation the
type, and its default what a missing key takes; a key that names no field
is refused. ``read_fields`` checks values a YAML parser has already typed;
``read_text`` casts the strings of an INI section or a CSV row. Range
checks stay in each class's ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from .errors import ParseError

__all__ = ["field_types", "check_keys", "read_fields", "read_text"]

_SCALARS = (int, float, str, float | None)
_NOUNS = {int: "an integer", float: "a number", str: "a string"}


@functools.cache
def field_types(cls) -> tuple[dict[str, object], frozenset[str]]:
    """``cls``'s scalar fields with their types, and the fields with a default.

    Fields of any other type (a nested dataclass, a list of them) are
    left to the caller to build.
    """
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    kinds = {f.name: hints[f.name] for f in fields if hints[f.name] in _SCALARS}
    optional = frozenset(
        f.name
        for f in fields
        if f.default is not dataclasses.MISSING
        or f.default_factory is not dataclasses.MISSING
    )
    return kinds, optional


def _check(value, kind, where: str):
    """``value`` as ``kind``: a float may be written as an integer, and no
    bool is a number."""
    if not isinstance(value, bool):
        if isinstance(value, int) and isinstance(0.0, kind):
            try:
                return float(value)
            except OverflowError as exc:
                raise ParseError(f"{where} is too large for a float") from exc
        elif isinstance(value, kind):
            return value
    noun = _NOUNS.get(kind, "a number or null")
    raise ParseError(f"{where} must be {noun}, got {value!r}")


def check_keys(data, kinds: dict, where: str, optional=frozenset()) -> dict:
    """The values of mapping ``data`` under the keys of ``kinds``, type-checked.

    A key in ``optional`` may be missing; keys ``kinds`` does not name are
    left alone.
    """
    if not isinstance(data, dict):
        raise ParseError(f"{where} must be a mapping, got {data!r}")
    values = {}
    for key, kind in kinds.items():
        if key in data:
            values[key] = _check(data[key], kind, f"{where} {key}")
        elif key not in optional:
            raise ParseError(f"missing key {key!r} in {where}")
    return values


def read_fields(cls, data, where: str, **nested):
    """A ``cls`` from a parsed mapping; ``nested`` gives its non-scalar fields.

    A key that names neither a scalar field nor one of ``nested`` is an
    error, so no key is read and then ignored.
    """
    kinds, optional = field_types(cls)
    values = check_keys(data, kinds, where, optional)
    for key in data:
        if key not in kinds and key not in nested:
            raise ParseError(f"unknown key {key!r} in {where}")
    return cls(**values, **nested)


def read_text(cls, items, where: str):
    """A ``cls`` from (key, text) pairs, such as an INI section or a CSV row.

    Each text is cast to its field's type; an empty or missing one takes
    the field's default. A key that names no field is an error.
    """
    kinds, optional = field_types(cls)
    values = {}
    for key, text in items:
        if key not in kinds:
            raise ParseError(f"unknown key {key!r} in {where}")
        text = (text or "").strip()  # a short CSV row reads as None
        if not text:
            continue
        cast = kinds[key] if kinds[key] in (int, str) else float
        try:
            values[key] = cast(text)
        except ValueError as exc:
            raise ParseError(f"bad value {text!r} for {key!r} in {where}") from exc
    missing = [key for key in kinds if key not in values and key not in optional]
    if missing:
        raise ParseError(f"missing key {missing[0]!r} in {where}")
    return cls(**values)
