"""The ``key = value`` config format of ``train`` and ``gen-synthetic``.

One pair per line; blank lines and lines starting with '#' are skipped.
The keys of a config dataclass are its fields of a scalar type, and each
value is parsed by that type: ``int``, ``float`` and ``str`` as written,
``tuple[int, int]`` as ``N`` or ``LO..HI``.  A field of any other type (the
generator's lexicons) is not a key: it is set by the constructor only.
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import cache
from pathlib import Path
from typing import Any, Callable, Mapping, get_type_hints

from .dataset import utf8_named


def _int_range(raw: str) -> tuple[int, int]:
    lo, sep, hi = raw.partition("..")
    return (int(lo), int(hi)) if sep else (int(raw), int(raw))


_PARSERS = {int: int, float: float, str: str, tuple[int, int]: _int_range}


@cache
def config_keys(cls: type) -> dict[str, Callable[[str], Any]]:
    """The keys of config dataclass ``cls``, in field order, with their parsers."""
    hints = get_type_hints(cls)
    return {f.name: _PARSERS[hints[f.name]] for f in fields(cls) if hints[f.name] in _PARSERS}


def parse_value(cls: type, key: str, raw: str) -> Any:
    parser = config_keys(cls).get(key)
    if parser is None:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return parser(raw.strip())
    except ValueError as exc:
        raise ValueError(f"bad {key!r}: {exc}") from None


def parse_config_file(cls: type, path: str | Path) -> dict[str, Any]:
    with utf8_named(path):
        text = Path(path).read_text(encoding="utf-8-sig")
    values = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {line_no} is not a key=value pair: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = parse_value(cls, key.strip(), value)
    return values


def _value_text(value: Any) -> str:
    return "..".join(map(str, value)) if isinstance(value, tuple) else str(value)


def config_to_text(config: Any) -> str:
    """Stable echo of a config's keys, which parse_config_file reads back."""
    keys = config_keys(type(config))
    return "".join(f"{key} = {_value_text(getattr(config, key))}\n" for key in keys)


def layer_config(base: Any, path: str | Path | None, flags: Mapping[str, Any]) -> Any:
    """``base``, then the config file at ``path`` if any, then the flags that are set.

    ``flags`` holds None for a flag not given and may hold other names; a
    value given as text is parsed like one in a file.  The layered config
    is validated once, when it is built.
    """
    cls = type(base)
    values = parse_config_file(cls, path) if path else {}
    for key in config_keys(cls):
        value = flags.get(key)
        if isinstance(value, str):
            value = parse_value(cls, key, value)
        if value is not None:
            values[key] = value
    return replace(base, **values)
