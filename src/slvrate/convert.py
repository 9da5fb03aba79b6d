"""Converters: the one check of each config field, flag and stored key.

A converter returns a raw value in its field's type and range, or raises
``ValueError`` or ``TypeError`` with a message that names no key; one that
needs other keys takes them as arguments. ``read`` and ``cli._arg`` name
the key or flag of a fault (exit 1), and ``checked`` raises it as a
record's or function's own error.
"""

from __future__ import annotations

import math
from functools import partial

from .errors import ConfigError, ModelError

REQUIRED = object()


def checked(raises: type[Exception], key: str, convert, *args):
    """``convert(*args)``; a fault it finds, or a record it builds rejects, is
    raised as ``raises`` naming ``key``, so a nested key reads ``outer: inner``."""
    try:
        return convert(*args)
    except (ConfigError, ModelError, TypeError, ValueError, OverflowError) as err:
        raise raises(f"{key}: {err}") from None


def json_object(value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"expected a JSON object, got {value!r}")
    return value


def read(cfg, key: str, convert, default=REQUIRED):
    """``convert(cfg[key])``, or ``default`` when the key is absent; a missing
    required key or a value ``convert`` rejects is a ConfigError naming it."""
    if key not in json_object(cfg):
        if default is REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return checked(ConfigError, key, convert, cfg[key])


def finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {value!r}")
    return x


def bounded(within, bounds: str):
    """The converter of a finite float for which ``within`` holds."""
    def convert(value) -> float:
        x = finite(value)
        if not within(x):
            raise ValueError(f"must be {bounds}, got {x:g}")
        return x
    return convert


non_negative = bounded(lambda x: x >= 0.0, ">= 0")
probability = bounded(lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
confidence_level = bounded(lambda x: 0.0 < x < 1.0, "in (0, 1)")


def integer(value, least: int = 1) -> int:
    """An integer >= ``least``; a bool and a float with a fraction are not."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    n = int(value)
    if n < least:
        raise ValueError(f"must be >= {least}, got {n}")
    return n


non_negative_int = partial(integer, least=0)  # a seed, a replicate index, a count


def choice(*words: str):
    """The converter of one of ``words``, kept as ``choices`` for a usage line."""
    def convert(value) -> str:
        if value not in words:
            raise ValueError(f"must be one of {', '.join(words)}, got {value!r}")
        return value
    convert.choices = words
    return convert


def per_locus(convert, values, loci) -> tuple:
    """One value per locus, each read by ``convert``."""
    values = tuple(map(convert, values))
    if len(values) != len(loci):
        raise ValueError(f"expected {len(loci)} values, one per locus, got {len(values)}")
    return values


def unique(names: list[str]) -> list[str]:
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"locus {name!r} is named twice")
        seen.add(name)
    return names


def config_loci(entries) -> tuple[tuple[str, int], ...]:
    """A config's ``loci``: 2 or more ``{"name", "length"}``, each name once."""
    loci = tuple((read(e, "name", str), read(e, "length", integer)) for e in entries)
    unique([name for name, _length in loci])
    if len(loci) < 2:
        raise ValueError(f"need at least 2 loci, got {len(loci)}")
    return loci
