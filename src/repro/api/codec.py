"""One codec for the spec vocabulary: a spec rebuilt from its plain form.

A spec's plain form is ``dataclasses.asdict`` output (what
:meth:`~repro.api.spec.ExperimentSpec.to_dict` returns), JSON-decoded or
not.  :func:`from_dict` inverts it for any spec dataclass by reading the
declared field types (``typing.get_type_hints``, so postponed annotations
and forward references resolve): a nested spec comes from a dict, a tuple
from a list, ``Optional[X]`` decodes as ``X``, and a
:class:`~repro.serving.shapes.RateShape` is chosen by its ``kind`` through
:data:`~repro.serving.shapes.RATE_SHAPES`.  Fields declared
``init=False`` (a shape's ``kind``) are skipped.  Every other value --
scalars, and shorthands such as a bare shape, GPU or policy name -- goes
to the constructor unchanged, so validation stays in the constructors and
an unknown key raises ``TypeError`` there.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Mapping, Union

from repro.serving.shapes import RATE_SHAPES, RateShape, available_shapes


def _unwrap_optional(declared: Any) -> Any:
    if typing.get_origin(declared) is Union:
        (declared,) = [arg for arg in typing.get_args(declared) if arg is not type(None)]
    return declared


def from_dict(cls: type, payload: Mapping[str, Any]) -> Any:
    """Rebuild an instance of the spec dataclass ``cls`` from its plain form.

    ``cls=RateShape`` builds the registered shape its ``kind`` names.
    """
    if cls is RateShape:
        kind = payload.get("kind")
        if not isinstance(kind, str) or kind.lower() not in RATE_SHAPES:
            raise ValueError(f"unknown rate shape {kind!r}; known: {available_shapes()}")
        cls = RATE_SHAPES[kind.lower()]
    hints = typing.get_type_hints(cls)
    derived = {
        spec_field.name for spec_field in dataclasses.fields(cls) if not spec_field.init
    }
    return cls(
        **{
            key: decode(hints.get(key, Any), value)
            for key, value in payload.items()
            if key not in derived
        }
    )


def decode(declared: Any, value: Any) -> Any:
    """``value`` decoded as the declared type ``declared`` (see the module doc)."""
    declared = _unwrap_optional(declared)
    if typing.get_origin(declared) is tuple and isinstance(value, (list, tuple)):
        args = typing.get_args(declared)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(decode(args[0], entry) for entry in value)
        return tuple(decode(arg, entry) for arg, entry in zip(args, value, strict=True))
    if isinstance(value, Mapping) and (
        declared is RateShape or dataclasses.is_dataclass(declared)
    ):
        return from_dict(declared, value)
    return value


def field_type(cls: type, path: str) -> Any:
    """Declared type of the field at dotted ``path`` under ``cls``.

    ``Any`` where the path leaves the spec dataclasses (an unknown field),
    so the value it addresses decodes unchanged.
    """
    declared: Any = cls
    for part in path.split("."):
        declared = _unwrap_optional(declared)
        if not dataclasses.is_dataclass(declared):
            return Any
        declared = typing.get_type_hints(declared).get(part, Any)
    return declared
