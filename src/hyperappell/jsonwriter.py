"""The JSON writer of the command line.

`write_json` writes ``json.dumps(payload, sort_keys=True, indent=2)`` and a
newline in pieces, each item of a top-level array (a sequence member, a
matrix row) in one piece, so no command holds its whole output text.  Any
iterable, such as a generator, may stand for an array.  A written piece
stays written: callers run whatever can fail first.  With an indent, json
skips its C encoder, so this writer is also faster.  The package does not
import this module, so the library does not load json.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii


def write_json(payload, write) -> None:
    """Hand `write` the text of ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``.

    Strings are quoted by json's C routine and scalars looked up by exact
    type.  Keys must be strings.  Unlike json, the writer refuses a
    subclass of str, int or float (TypeError); no payload holds one.
    """
    _write(payload, "\n", write)
    write("\n")


def _write(value, indent: str, write) -> None:
    """Write `value`; `indent` is a newline and the spaces of its level."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return write(scalar(value))
    inner = indent + "  "
    if isinstance(value, dict):
        sep = "{"
        for key in sorted(value):
            write(sep + inner + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, write)
            sep = ","
        return write("{}" if sep == "{" else indent + "}")
    if isinstance(value, (str, bytes)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    sep = "["
    for item in value:
        write(sep + inner + _json_text(item, inner))
        sep = ","
    write("[]" if sep == "[" else indent + "]")


def _json_text(value, indent: str) -> str:
    """`value` as one piece of text."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    pieces: list[str] = []
    _write(value, indent, pieces.append)
    return "".join(pieces)


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
