"""The JSON writer of the command line.

`write_json` writes ``json.dumps(payload, sort_keys=True, indent=2)`` and a
newline in pieces, so no command holds its whole output text.  Any
iterable, such as a generator, may stand for an array.  Each item of a
top-level array, one outside every array item, is written once it is
complete, before the next item is drawn; whatever an item holds, an
iterable too, is joined into that item's piece.  So `matrices` draws and
writes one row at a time.  A written piece stays written: callers run
whatever can fail first.  With an indent, json skips its C encoder, so
this writer is also faster.  The package does not import this module, so
the library does not load json.  `gen` renders its own pieces, one block
of terms each (`seqfile.sequence_pieces`).
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
    pending: list[str] = []
    _write(payload, "\n", pending, write)
    pending.append("\n")
    write("".join(pending))


def _write(value, indent: str, pending: list[str], write=None) -> None:
    """Append the text of `value` to `pending`; `indent` is a newline and the spaces of its level.

    With `write`, outside every array item, each item of an array goes to
    `write` as one piece, `pending` included, once it is complete.
    """
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return pending.append(scalar(value))
    inner = indent + "  "
    if isinstance(value, dict):
        sep = "{"
        for key in sorted(value):
            pending.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, pending, write)
            sep = ","
        return pending.append("{}" if sep == "{" else indent + "}")
    if isinstance(value, (str, bytes)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    sep = "["
    for item in value:
        pending.append(sep + inner)
        _write(item, inner, pending)
        if write:
            write("".join(pending))
            pending.clear()
        sep = ","
    pending.append("[]" if sep == "[" else indent + "]")


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
