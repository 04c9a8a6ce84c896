"""Config dataclasses to and from plain JSON-shaped dicts.

A config dataclass is the single statement of its section's key names,
types and defaults. `build` checks a dict against the field annotations and
then calls the constructor, so `__post_init__` range checks still apply;
`to_dict` is its inverse. A field whose metadata names a `key` appears in
the dict under that name instead of its attribute name.
"""
from __future__ import annotations

import copy
import dataclasses
import math
import typing

from .errors import ConfigError


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


def _check(tp, value, path: str):
    """Return value checked against annotation tp; build nested dataclasses.

    An annotation this function does not know (e.g. a tuple of arrays) is
    passed through for the constructor to validate.
    """
    if dataclasses.is_dataclass(tp):
        return build(tp, value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and type(None) in args:
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _check(inner, value, path)
    if origin is list:
        if isinstance(value, list):
            return [_check(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    elif tp is float:
        # NaN and the infinities are rejected; an int is always finite (and
        # math.isfinite would overflow on a huge one)
        if (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and math.isfinite(value)):
            return value
    elif tp in (int, str, bool, dict):
        if isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
            return value
    else:
        return value
    raise ConfigError(f"config key {path} has invalid value {value!r}")


def build(cls, obj, path: str = ""):
    """Construct dataclass cls from dict obj, rejecting unknown keys and
    wrongly typed values; keys left out take the field defaults."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    by_key = {_key(f): f for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(by_key)
    if unknown:
        raise ConfigError(f"unknown config key(s) under {path or '<root>'}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, f in by_key.items():
        dotted = f"{path}.{key}" if path else key
        if key in obj:
            kwargs[f.name] = _check(hints[f.name], obj[key], dotted)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing config key {dotted}")
    return cls(**kwargs)


def to_dict(obj) -> dict:
    """The dict form of a config dataclass, as `build` reads it."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        out[_key(f)] = to_dict(value) if dataclasses.is_dataclass(value) else copy.deepcopy(value)
    return out
