"""Type checks of the spec dataclasses' fields, driven by their annotations.

One check serves both ways a spec is made: ``spec_from_dict`` builds a
spec from parsed YAML, and every spec's ``__post_init__`` calls
``check_fields`` first, so a spec built in Python is held to the same
types.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields, is_dataclass
from functools import lru_cache
from typing import Union, get_args, get_origin, get_type_hints

from .errors import ConfigurationError

_SCALARS = {bool: "a boolean", int: "an integer", float: "a number",
            str: "a string"}

# annotations are resolved once per class
_hints = lru_cache(maxsize=None)(get_type_hints)


def _convert(tp, value, where, build):
    """Check ``value`` against the field annotation ``tp``; return it typed.

    A bool is only a bool (never an int or a float), an int is accepted as
    a float, a list as a tuple, and floats must be finite.  A nested spec
    is built from a mapping when ``build`` is set and must already be an
    instance otherwise.
    """
    if is_dataclass(tp):
        if build:
            return spec_from_dict(tp, value, where)
        if not isinstance(value, tp):
            raise ConfigurationError(f"{where} must be a {tp.__name__}")
        return value
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:             # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _convert(tp, value, where, build)
    if origin is tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigurationError(f"{where} must be a non-empty list")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(
                f"{where} must be a list of {len(args)} entries")
        return tuple(_convert(t, v, f"{where}[{i}]", build)
                     for i, (t, v) in enumerate(zip(args, value)))
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) is not (tp is bool) or not isinstance(value, accepted):
        raise ConfigurationError(f"{where} must be {_SCALARS[tp]}")
    if tp is float:
        try:
            value = float(value)
        except OverflowError:       # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigurationError(f"{where} must be finite")
    return value


def spec_from_dict(cls, data, where):
    """Build the spec dataclass ``cls`` from a mapping; a missing or null
    section gives the defaults and a field without a default is required."""
    section = where or "config"
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"{section} must be a mapping")
    extra = set(data) - {f.name for f in fields(cls)}
    if extra:
        raise ConfigurationError(
            f"unknown key(s) in {section}: {sorted(extra)}")
    types = _hints(cls)
    kwargs = {}
    for f in fields(cls):
        path = f"{where}.{f.name}" if where else f.name
        if f.name in data:
            kwargs[f.name] = _convert(types[f.name], data[f.name], path, True)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{path} is required")
    return cls(**kwargs)


def check_fields(spec):
    """Check every field of the spec dataclass ``spec`` against its
    annotation; raises ``ConfigurationError`` and changes nothing."""
    types = _hints(type(spec))
    for f in fields(spec):
        _convert(types[f.name], getattr(spec, f.name),
                 f"{type(spec).__name__}.{f.name}", False)
