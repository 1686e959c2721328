"""The ``REPRO_*`` environment knobs: one table, read in one place.

Damaris keeps its run-time options in one external description that the
clients and the dedicated core both read (:mod:`repro.core.config`);
the engine's environment knobs follow suit. :data:`KNOBS` holds one
:class:`Knob` row per ``REPRO_*`` variable, and every reader, the
sweep-cache key context and the figure CLI's flags are built from it.
No other module under ``repro`` touches a ``REPRO_*`` variable.

The environment is read at call time. An explicit argument beats the
environment, which beats the default, and an empty value means unset.
Booleans are on for ``1``/``true``/``yes``/``on`` and off for
``0``/``false``/``no``/``off`` (stripped, any case). A value that fails
its row raises :class:`~repro.errors.ConfigurationError` naming the
variable and its valid values, except on the throughput row
``REPRO_PARALLEL``, which warns and falls back.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["KNOBS", "Knob", "check", "export", "get", "parse_addr",
           "parse_bool"]

#: ``Knob.fallback`` of a row whose bad values raise.
_STRICT = object()

_ON, _OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def parse_bool(raw: Any) -> bool:
    word = str(raw).strip().lower()
    if word not in _ON + _OFF:
        raise ValueError(raw)
    return word in _ON


def parse_addr(item: Any) -> Tuple[str, int]:
    """``host:port`` (a bare ``:port`` or ``port`` means localhost) or a
    ``(host, port)`` pair; the ``ValueError`` says what is wrong."""
    if isinstance(item, tuple):
        host, port = item
    else:
        host, _, port = str(item).strip().rpartition(":")
        host = host or "127.0.0.1"
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ValueError(f"{item!r}: expected host:port") from None
    if not 0 < port < 65536:
        raise ValueError(f"{item!r}: port out of range")
    return host, port


def _word(raw: Any) -> str:
    return str(raw).strip().lower()


def _at_least(low: int) -> Callable[[Any], int]:
    def parse(raw: Any) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(raw)
        return value
    return parse


def _existing_file(raw: Any) -> str:
    if not os.path.isfile(str(raw)):
        raise ValueError(raw)
    return str(raw)


@dataclass(frozen=True)
class Knob:
    """One ``REPRO_*`` variable: ``parse`` turns a stripped value (or an
    explicit argument) into the value or raises ``ValueError``;
    ``default`` (called when callable) applies when unset; ``valid`` is
    what messages and ``--help`` print (derived from ``choices`` when
    those are given); ``cache_key`` names its sweep-cache context field;
    ``flag`` is its figure-CLI flag (a boolean row also gets
    ``--no-...``); ``fallback``, when set, is what a bad environment
    value warns and falls back to instead of raising."""

    env: str
    parse: Callable[[Any], Any]
    help: str
    default: Any = None
    valid: str = ""
    choices: Tuple[str, ...] = ()
    cache_key: str = ""
    flag: str = ""
    fallback: Any = _STRICT

    def __post_init__(self) -> None:
        if self.choices:
            object.__setattr__(self, "valid", "one of " + ", ".join(
                map(repr, self.choices)))

    def value(self, raw: Any) -> Any:
        parsed = self.parse(raw)
        if self.choices and parsed not in self.choices:
            raise ValueError(raw)
        return parsed

    def invalid(self, source: str, raw: Any) -> str:
        where = source if source == self.env else f"{source} ({self.env})"
        return f"{where}: {raw!r} is invalid; expected {self.valid}"


_POSITIVE = "a positive integer (>= 1)"
_BOOL = f"{', '.join(_ON)} or {', '.join(_OFF)}"

#: Every ``REPRO_*`` variable by name, in cache-context order.
KNOBS: Dict[str, Knob] = {knob.env: knob for knob in (
    Knob("REPRO_FAST", parse_bool, "trimmed sweeps: smaller scales, "
         "fewer write phases", False, _BOOL, cache_key="repro_fast"),
    Knob("REPRO_KERNEL", _word, "water-filling kernel; unset means "
         "compiled when the C kernel loads, else python",
         choices=("compiled", "python"), cache_key="repro_kernel",
         flag="--kernel"),
    Knob("REPRO_TRACE", str, "record one trace file per sweep "
         "configuration into this directory", "", "a directory",
         flag="--trace"),
    Knob("REPRO_PARALLEL", _at_least(1), "sweep worker processes", 1,
         _POSITIVE, flag="--parallel", fallback=1),
    Knob("REPRO_CACHE", parse_bool, "serve sweep points from the result "
         "cache and store the rest", False, _BOOL, flag="--cache"),
    Knob("REPRO_CACHE_DIR", str, "result cache location",
         lambda: os.path.join(os.environ.get("XDG_CACHE_HOME", "").strip()
                              or os.path.expanduser("~/.cache"),
                              "repro", "sweeps"),
         "a directory", flag="--cache-dir"),
    Knob("REPRO_CACHE_MAX_BYTES", _at_least(0), "result cache size "
         "bound, enforced by LRU eviction after each sweep", 2 << 30,
         "an integer number of bytes (>= 0)"),
    Knob("REPRO_KERNEL_CACHE", str, "where the compiled kernel is built "
         "and cached", lambda: os.path.expanduser("~/.cache/repro/kernels"),
         "a directory"),
    Knob("REPRO_FAULTS", _existing_file, "fault schedule of the faults "
         "figure; unset means the committed example", "",
         "an existing fault-schedule JSON file", flag="--faults"),
    Knob("REPRO_SERVICE_ADDR", parse_addr, "servectl's default server "
         "address", ("127.0.0.1", 8642), "host:port"),
)}


def get(name: str, arg: Any = None, *, source: str = "",
        error: type = ConfigurationError) -> Any:
    """Row ``name``'s value: ``arg`` if given, else the environment's,
    else the default. A bad ``arg`` raises ``error`` naming ``source``
    (its keyword or flag), so keyword arguments keep their callers'
    error types; a bad environment value raises ``ConfigurationError``
    or, on a lenient row, warns and returns the fallback."""
    knob = KNOBS[name]
    if arg is not None:
        try:
            return knob.value(arg)
        except (TypeError, ValueError):
            raise error(knob.invalid(source or name, arg)) from None
    raw = os.environ.get(name, "").strip()
    if not raw:
        return knob.default() if callable(knob.default) else knob.default
    try:
        return knob.value(raw)
    except (TypeError, ValueError):
        if knob.fallback is _STRICT:
            raise ConfigurationError(knob.invalid(name, raw)) from None
    warnings.warn(f"{knob.invalid(name, raw)}; using {knob.fallback}",
                  RuntimeWarning, stacklevel=3)
    return knob.fallback


def check(names: Iterable[str],
          overrides: Optional[Mapping[str, str]] = None) -> None:
    """Raise ``ConfigurationError`` on the first bad value among the
    rows ``names``, reading ``overrides`` (raw values by variable, e.g.
    parsed flags) before the environment. Lenient rows only fail when
    overridden."""
    overrides = overrides or {}
    for name in names:
        if name in overrides:
            get(name, overrides[name], source=KNOBS[name].flag or name)
        elif KNOBS[name].fallback is _STRICT:
            get(name)


def export(values: Mapping[str, str]) -> None:
    """Write checked raw values where task bodies and pool workers
    read them."""
    os.environ.update(values)
