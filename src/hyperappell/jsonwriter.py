"""The JSON writer of the command line.

`dump_json` gives the bytes of ``json.dumps(payload, sort_keys=True,
indent=2)`` plus a newline, faster: with an indent, CPython's json module
skips its C encoder for a pure-Python generator.  The package does not
import this module, so loading the library does not load `json`.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii


def dump_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    Strings are quoted by json's C routine, scalars are looked up by exact
    type, and each container is joined once (a list of strings in one
    join).  Keys must be strings.  Unlike json, the writer refuses a
    subclass of str, int or float (TypeError); no payload holds one.
    """
    return _json_text(payload, "\n") + "\n"


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value, indent: str) -> str:
    """`value` as indented JSON; `indent` is a newline and the spaces of its level."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = []
        for key in sorted(value):
            item = value[key]
            scalar = _JSON_SCALARS.get(type(item))
            text = scalar(item) if scalar else _json_text(item, inner)
            body.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(body) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(item) is str for item in value):
            body = map(encode_basestring_ascii, value)
        else:
            body = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(body) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
