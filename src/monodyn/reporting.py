"""Serialization of results: exact-rational JSON envelopes and CSV tables.

Every number crossing the output boundary is an integer or a
{"num", "den"} pair; floats are rejected at render time so a lossy
value cannot slip into a report.  Envelopes carry the schema tag, the
command, a seed of 0 (no report draws at random), and a hash of the
configuration so identical runs produce byte-identical files.

`_render` maps a result object to JSON as it writes, one node at a
time, by the exact-type rules in its docstring, in the two-space-indent
layout of `json.dumps(..., indent=2)`.  An int array, or a list of
exact ints, becomes text JOIN_BLOCK items per join, and so do the DOT
lines of `graph_engine.export_dot`.  `_csv` is the one CSV layout.
The tests hold the JSON, byte for byte, to the standard library's
encoder run on an independent recursive mapping in `tests/oracles.py`.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from hashlib import sha256
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__

SCHEMA = "monodyn/1"

#: Items of an int list or array turned into text per join; bounds the
#: temporary ints and strings of a q-long array.
JOIN_BLOCK = 2**16


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
    (an IntEnum, a namedtuple, an OrderedDict) and any other type raise
    TypeError: exact pipelines have no business producing them.
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
    elif kind is np.ndarray:
        if obj.dtype.kind not in "iu":
            raise TypeError(f"refusing to serialize {obj.dtype} array")
        _render_list(obj if obj.ndim == 1 else obj.tolist(), pad, put)
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
        head = opening + encode_basestring_ascii(k) + ": "
        opening = "," + inner
        if type(v) is int:
            put(head + str(v))
        else:
            put(head)
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
    if isinstance(seq, np.ndarray) or all(type(v) is int for v in seq):
        put(_int_text(seq, sep))
    else:
        for i, v in enumerate(seq):
            if i:
                put(sep)
            _render(v, inner, put)
    put(pad + "]")


def _int_text(seq, sep: str) -> str:
    """The decimal forms of seq's ints joined by sep, JOIN_BLOCK at a time."""
    if len(seq) > JOIN_BLOCK:
        blocks = range(0, len(seq), JOIN_BLOCK)
        return sep.join(_int_text(seq[lo : lo + JOIN_BLOCK], sep) for lo in blocks)
    if isinstance(seq, np.ndarray):
        seq = seq.tolist()
    return sep.join(map(str, seq))


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
    return "\n".join(lines) + "\n"


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
    rows = (
        (pt.t, pt.pi_K, pt.c_r, pt.ratio.numerator, pt.ratio.denominator, pt.tag)
        for pt in report.series
    )
    return _csv(header, "t,pi_K,C_r,ratio_num,ratio_den,subsequence_tag", rows)
