"""Field rules declared next to each field, and the one walker that checks them.

Each field of a checked dataclass is declared with `rule(...)`. Its kind is
its annotation: int (not a bool), float (an int or a finite float), str,
bool, dict, list[X], X | None or a nested dataclass. The rule may add bounds
(`low`, `high`, both inclusive; a list's length is bounded),
`choices`, and for RunConfig's top-level fields the `stage` that reads it.
`check` raises a ValueError naming the first field that breaks its rule.
Every settings dataclass is frozen and checks itself in __post_init__, so a
nested one is valid already and is checked for its kind alone. A rule
that relates two fields stays with its dataclass and runs after `check`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from types import NoneType


class Rule(typing.NamedTuple):
    low: float | None = None
    high: float | None = None
    choices: tuple = ()
    stage: str | None = None


def rule(default=dataclasses.MISSING, *, factory=dataclasses.MISSING, **bounds):
    """A dataclass field checked against its annotation and Rule(**bounds)."""
    return dataclasses.field(default=default, default_factory=factory,
                             metadata={"rule": Rule(**bounds)})


_KIND_NAMES = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
               str: ("a string", "strings"), bool: ("true or false", "booleans"),
               dict: ("a mapping", "mappings")}


def _describe(kind, plural: bool = False) -> str:
    args = typing.get_args(kind)
    if NoneType in args:
        return _describe(args[0], plural) + " or None"
    if typing.get_origin(kind) is list:
        return ("rows of " if plural else "a list of ") + _describe(args[0], True)
    if dataclasses.is_dataclass(kind):
        return f"a {kind.__name__}"
    return _KIND_NAMES[kind][plural]


def _fits(value, kind) -> bool:
    args = typing.get_args(kind)
    if NoneType in args:
        return value is None or _fits(value, args[0])
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if kind in (int, float) and isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _broken(value, r: Rule) -> str | None:
    """What value must do to keep the rule r, or None when it keeps it."""
    if r.choices:
        return None if value in r.choices else f"be one of {sorted(r.choices)}"
    if r.low is None or value is None:
        return None
    n = len(value) if isinstance(value, list) else value
    if r.high is None:
        ok, text = n >= r.low, f">= {r.low}"
    else:
        ok, text = r.low <= n <= r.high, f"in [{r.low}, {r.high}]"
    verb = "have length" if isinstance(value, list) else "be" if r.high is None else "lie"
    return None if ok else f"{verb} {text}"


@functools.cache
def _kinds(cls) -> dict:
    return typing.get_type_hints(cls)


def check_field(obj, f: dataclasses.Field, prefix: str = "") -> None:
    """Raise a ValueError naming prefix + f's name when field f of obj breaks its rule."""
    value, kind, name = getattr(obj, f.name), _kinds(type(obj))[f.name], prefix + f.name
    if not _fits(value, kind):
        raise ValueError(f"{name} must be {_describe(kind)}, got {value!r}")
    broken = _broken(value, f.metadata["rule"])
    if broken:
        raise ValueError(f"{name} must {broken}, got {value!r}")


def check(obj, prefix: str = "") -> None:
    for f in dataclasses.fields(obj):
        check_field(obj, f, prefix)


def mapping(d, kind, what: str) -> dict:
    """d when it maps field names of the dataclass kind and holds each field
    that has no default; otherwise a ValueError naming what."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a mapping, got {d!r}")
    fields = dataclasses.fields(kind)
    unknown = set(d) - {f.name for f in fields}
    lacking = {f.name for f in fields if f.name not in d and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING}
    if unknown:
        raise ValueError(f"{what} has unknown keys {sorted(unknown)}")
    if lacking:
        raise ValueError(f"{what} lacks keys {sorted(lacking)}")
    return d
