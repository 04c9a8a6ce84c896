"""Config dataclasses to and from plain JSON-shaped dicts.

A config dataclass is the single statement of its section's key names,
types and defaults. `build` checks a dict against the field annotations with
`check` and then calls the constructor, so `__post_init__` range checks
still apply; `to_dict` is its inverse. A field whose metadata names a `key`
appears in the dict under that name instead of its attribute name.
"""
from __future__ import annotations

import copy
import dataclasses
import reprlib
import sys
import typing

from .errors import ConfigError


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


def check(tp, value, path: str):
    """Return value checked against annotation tp; build nested dataclasses.

    The leaf types are int, str, bool and float, where a float is any int or
    float within the float range, so NaN, the infinities and huge ints are
    rejected; list and Optional nest them. An annotation outside these
    raises ConfigError too.
    """
    if dataclasses.is_dataclass(tp):
        return build(tp, value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and type(None) in args:
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return check(inner, value, path)
    if origin is list:
        if isinstance(value, list):
            return [check(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    elif tp is float:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max):
            return value
    elif tp in (int, str, bool):
        if isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
            return value
    else:
        raise ConfigError(f"config key {path} has an unsupported annotation {tp!r}")
    raise ConfigError(f"config key {path} has invalid value {reprlib.repr(value)}")


def build(cls, obj, path: str = ""):
    """Construct dataclass cls from dict obj, rejecting unknown keys and
    wrongly typed values; keys left out take the field defaults."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    by_key = {_key(f): f for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(by_key)
    if unknown:
        raise ConfigError(f"unknown config key(s) under {path or '<root>'}: "
                          f"{reprlib.repr(sorted(unknown))}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, f in by_key.items():
        dotted = f"{path}.{key}" if path else key
        if key in obj:
            kwargs[f.name] = check(hints[f.name], obj[key], dotted)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing config key {dotted}")
    return cls(**kwargs)


def to_dict(obj) -> dict:
    """The dict form of any dataclass, config or record; for a config, the
    form `build` reads. Every JSON file the CLI writes from a dataclass is
    this dict."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        out[_key(f)] = to_dict(value) if dataclasses.is_dataclass(value) else copy.deepcopy(value)
    return out
