"""The CLI's output bytes: JSON text and CSV rows.

:func:`json_text` writes the bytes of ``json.dumps(indent=2,
sort_keys=True)`` over the CLI's values.  :func:`row_chunks` formats rows
``CHUNK_ROWS`` at a time, with one ``%`` format over each chunk's values, so
the per-row work runs in C loops and memory does not grow with the row count
beyond the text itself: the CLI writes its CSV rows with it, and
:func:`json_text` a list of dicts that share their keys, from one row
template.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator

# json.encoder's own C string encoder, taken from the accelerator module so
# that the cold start does not load the json package
from _json import encode_basestring_ascii as _encode_str

CHUNK_ROWS = 4096


def json_text(value, pad: str = "\n") -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it.

    Keys become strings and are sorted; floats are ``float.__repr__`` (nan
    as ``NaN``, infinities as the strings ``"inf"``/``"-inf"``) and
    fractions the strings ``"p/q"``.  ``pad`` is the newline and indent of
    the enclosing level.  Any other type is a ``TypeError``.
    """
    if isinstance(value, float):
        if value - value == 0.0:  # finite
            return float.__repr__(value)
        if value != value:
            return "NaN"
        return '"inf"' if value > 0 else '"-inf"'
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = {str(k): v for k, v in value.items()}
        parts = [f"{_encode_str(k)}: {json_text(items[k], inner)}" for k in sorted(items)]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = _json_rows(value, inner)
        if body is None:
            body = ("," + inner).join([json_text(v, inner) for v in value])
        return "[" + inner + body + pad + "]"
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    from fractions import Fraction  # reached by a Fraction, which loaded fractions, or a refusal

    if isinstance(value, Fraction):
        return f'"{value.numerator}/{value.denominator}"'
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_rows(rows, pad: str) -> str | None:
    """``rows``, dicts that share one nonempty set of ``str`` keys, as
    :func:`json_text` writes list items at ``pad``, from one row template;
    else None.  A column of finite floats or ints is formatted inline, any
    other leaf by leaf.
    """
    first = rows[0]
    if (set(map(type, rows)) != {dict} or set(map(type, first)) != {str}
            or not all(map(first.keys().__eq__, map(dict.keys, rows)))):
        return None
    inner = pad + "  "
    fields, columns = [], []
    for key in sorted(first):
        column = list(map(operator.itemgetter(key), rows))
        kinds = set(map(type, column))
        spec = "%s"
        if kinds == {float} and math.isfinite(sum(column)):  # a nan or inf leaf makes it not
            spec = "%r"
        elif kinds == {int}:
            spec = "%d"
        else:
            column = [json_text(v, inner) for v in column]
        fields.append(inner + _encode_str(key).replace("%", "%%") + ": " + spec)
        columns.append(column)
    sep = "," + pad
    return "".join(row_chunks(sep + "{" + ",".join(fields) + pad + "}", columns))[len(sep):]


def row_chunks(fmt: str, columns: list | tuple) -> Iterator[str]:
    """``fmt`` over each row of ``columns`` (a value from each), ``CHUNK_ROWS`` rows a string."""
    rows = zip(*columns)
    while values := tuple(itertools.chain.from_iterable(itertools.islice(rows, CHUNK_ROWS))):
        yield fmt * (len(values) // len(columns)) % values
