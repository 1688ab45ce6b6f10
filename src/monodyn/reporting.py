"""Serialization of results: exact-rational JSON envelopes and CSV tables.

Every number crossing the output boundary is an integer or a
{"num", "den"} pair; floats are rejected at render time so a lossy
value cannot slip into a report.  Envelopes carry the schema tag, the
command, a seed of 0 (no report draws at random), and a hash of the
configuration so identical runs produce byte-identical files.

`_render` maps a result object to JSON as it writes, one node at a
time, by the exact-type rules in its docstring, in the two-space-indent
layout of `json.dumps(..., indent=2)`.  A list of exact ints becomes
text by str, JOIN_BLOCK items per join, as does an int array shorter
than KERNEL_MIN.  A longer one becomes text in `_text_rows`, the one
numpy text kernel, JOIN_BLOCK items per pass, as do the node and edge
lines of `graph_engine.export_dot`; no per-item Python int or str is
made.  `_csv` is the one CSV layout.
Nothing here loads numpy: an array can only reach `_render` once
numpy is loaded, so the ndarray check reads it from `sys.modules`,
and `_text_rows` imports it itself.
The tests hold the JSON, byte for byte, to the standard library's
encoder run on an independent recursive mapping in `tests/oracles.py`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from hashlib import sha256
from json.encoder import encode_basestring_ascii

from . import __version__

SCHEMA = "monodyn/1"

#: Items of an int list or array turned into text per join or per
#: `_text_rows` pass; bounds the temporaries of a q-long array.
JOIN_BLOCK = 2**16

#: Int arrays shorter than this are written by str, which beats a kernel pass.
KERNEL_MIN = 512


def render_json(doc) -> str:
    """doc as JSON text with two-space indents and a final newline."""
    out: list[str] = []
    _render(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _render(obj, pad: str, put) -> None:
    """Append obj's JSON text to put; pad is the newline and indent of its line.

    Dispatch is on the exact type: ints, strings, bools and None are
    written as they are, lists and tuples as lists, and one-dimensional
    integer arrays as lists (other integer arrays as nested lists).  A
    Fraction is written as {"num", "den"}, a dataclass as the dict of
    its fields, and a dict as `_render_dict` says.  Floats, arrays that
    do not hold integers, numpy scalars, subclasses of the types above
    (an IntEnum, a namedtuple, an OrderedDict, a masked array) and any
    other type raise TypeError: exact pipelines have no business
    producing them.
    Containers, strings and Fractions, nearly every node of a report,
    are checked first.
    """
    kind = type(obj)
    if kind is int:
        put(str(obj))
    elif kind is dict:
        _render_dict(obj, pad, put)
    elif kind is list or kind is tuple:
        _render_list(obj, pad, put)
    elif kind is str:
        put(encode_basestring_ascii(obj))
    elif kind is Fraction:
        put(f'{{{pad}  "num": {obj.numerator},{pad}  "den": {obj.denominator}{pad}}}')
    elif obj is None or kind is bool:
        put(json.dumps(obj))
    elif dataclasses.is_dataclass(kind):
        _render_dict(vars(obj), pad, put)
    elif "numpy" in sys.modules and kind is sys.modules["numpy"].ndarray:
        if obj.dtype.kind not in "iu":
            raise TypeError(f"refusing to serialize {obj.dtype} array")
        whole = obj.ndim == 1 and len(obj) >= KERNEL_MIN
        _render_list(obj if whole else obj.tolist(), pad, put)
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


def _render_dict(obj: dict, pad: str, put) -> None:
    """A dict keyed by str(k), in numeric order when the keys are all ints.

    Bools among int keys sort as 0 and 1; a dict of str keys keeps its order.
    """
    if not all(type(k) is str for k in obj):
        keys = sorted(obj) if all(isinstance(k, int) for k in obj) else obj
        obj = {str(k): obj[k] for k in keys}
    if not obj:
        put("{}")
        return
    inner = pad + "  "
    opening = "{" + inner
    for k, v in obj.items():
        put(opening + encode_basestring_ascii(k) + ": ")
        opening = "," + inner
        _render(v, inner, put)
    put(pad + "}")


def _render_list(seq, pad: str, put) -> None:
    """A list, tuple or one-dimensional integer array."""
    if not len(seq):
        put("[]")
        return
    inner = pad + "  "
    sep = "," + inner
    put("[" + inner)
    if type(seq) not in (list, tuple) or all(type(v) is int for v in seq):
        put(_int_text(seq, sep))
    else:
        for i, v in enumerate(seq):
            if i:
                put(sep)
            _render(v, inner, put)
    put(pad + "]")


def _int_text(seq, sep: str) -> str:
    """The decimal forms of seq's ints joined by sep, JOIN_BLOCK at a time.

    An array goes through `_text_rows`; a list or tuple of Python ints,
    whose values are unbounded, through str.
    """
    if len(seq) > JOIN_BLOCK:
        blocks = range(0, len(seq), JOIN_BLOCK)
        return sep.join(_int_text(seq[lo : lo + JOIN_BLOCK], sep) for lo in blocks)
    if type(seq) not in (list, tuple):
        return _text_rows([seq], sep)
    return sep.join(map(str, seq))


def _text_rows(parts, sep: str) -> str:
    """ASCII rows joined by sep, one row per item of the parts' arrays.

    A part is a bytes literal written in every row, a nonempty integer
    array written in decimal, or a (literal, mask) pair whose literal is
    written only in the rows where the boolean mask is true.  The rows
    are laid out in one uint8 matrix of fixed width: a template row of
    the literals, a sign column and the widest item's number of digit
    columns per array, and sep, repeated; then the digits are written a
    column at a time from the magnitudes by `// 10` and `% 10`.  A
    boolean matrix of the same shape keeps the bytes of the text, which
    drops leading zeros, the sign of an item that is not negative, the
    literal of a false mask row and the last row's sep.
    """
    import numpy as np

    row = b""
    masks = []  # (first column, end column, rows to keep them in)
    numbers = []  # (first digit column, magnitudes, digit columns)
    for part in (*parts, sep.encode("ascii")):
        if type(part) is bytes:
            row += part
        elif type(part) is tuple:
            literal, mask = part
            masks.append((len(row), len(row) + len(literal), mask))
            row += literal
        else:
            # negated in the unsigned type of the same or a larger size,
            # so -2**63 and 2**64 - 1 have exact magnitudes
            neg = part < 0
            mag = part.astype(np.uint64 if part.itemsize > 4 else np.uint32)
            np.negative(mag, out=mag, where=neg)
            digits = len(str(mag.max()))
            masks.append((len(row), len(row) + 1, neg))
            numbers.append((len(row) + 1, mag, digits))
            row += b"-" + b"0" * digits
    rows, width = len(masks[0][2]), len(row)
    text = np.frombuffer(bytearray(row) * rows, np.uint8).reshape(rows, width)
    keep = np.ones((rows, width), bool)
    for lo, hi, mask in masks:
        keep[:, lo:hi] = mask[:, None]
    for lo, mag, digits in numbers:
        for col in range(lo + digits - 1, lo, -1):
            quot = mag // 10
            text[:, col] = mag - quot * 10 + ord("0")
            mag = quot
            np.not_equal(mag, 0, out=keep[:, col - 1])
        text[:, lo] = mag + ord("0")
    keep[-1, width - len(sep) :] = False
    return text.ravel()[keep.ravel()].tobytes().decode("ascii")


def config_hash(config: dict) -> str:
    """Hash of a flat config of ints, bools, strings and None."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "sha256:" + sha256(blob.encode()).hexdigest()


def envelope(command: str, config: dict, result) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "seed": 0,
        "config": config,
        "input_hash": config_hash(config),
        "result": result,
    }


def comment_header(command: str, config: dict) -> list[str]:
    return [
        f"schema: {SCHEMA}",
        f"command: {command}",
        "seed: 0",
        f"input_hash: {config_hash(config)}",
    ]


def _csv(header: list[str], columns: str, rows) -> str:
    """The header as `# ` comment lines, the column line, then one
    comma-joined line per row."""
    lines = [f"# {h}" for h in header]
    lines.append(columns)
    lines.extend(",".join(map(str, row)) for row in rows)
    lines.append("")
    return "\n".join(lines)


def sweep_csv(report, header: list[str]) -> str:
    """CSV of a prime-sweep report, one row per checkpoint."""
    a = report.analytic
    rows = (
        (cp.t, cp.prime_count, cp.mean.numerator, cp.mean.denominator,
         a.numerator, a.denominator)
        for cp in report.checkpoints
    )
    columns = "t,pi_t,empirical_num,empirical_den,analytic_num,analytic_den"
    return _csv(header, columns, rows)


def ff_csv(report, header: list[str]) -> str:
    """CSV of a function-field oscillation report, one row per degree."""
    rows = map(_ff_row, report.series)
    return _csv(header, "t,pi_K,C_r,ratio_num,ratio_den,subsequence_tag", rows)


def _ff_row(pt) -> tuple:
    """A series point's CSV fields.  pi_K and C_r are turned into text
    once: where the ratio's denominator is pi_K, gcd(C_r, pi_K) = 1 and
    the ratio's fields are the same two texts."""
    pi_k, c_r = str(pt.pi_K), str(pt.c_r)
    if pt.ratio.denominator == pt.pi_K:
        return pt.t, pi_k, c_r, c_r, pi_k, pt.tag
    return pt.t, pi_k, c_r, pt.ratio.numerator, pt.ratio.denominator, pt.tag
