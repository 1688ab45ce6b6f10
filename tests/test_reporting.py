import json
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from monodyn import __version__, reporting
from monodyn.function_field import oscillation_experiment
from monodyn.mean_values import empirical_mean
from monodyn.reporting import (
    SCHEMA,
    comment_header,
    config_hash,
    envelope,
    ff_csv,
    render_json,
    sweep_csv,
)

from oracles import jsonable as oracle_jsonable


@dataclass(frozen=True)
class Sample:
    count: int
    ratio: Fraction
    label: str


@dataclass(frozen=True)
class Box:
    value: object
    tag: str = "box"


class Mode(IntEnum):
    ON = 1


Pair = namedtuple("Pair", "x y")


class SubArray(np.ndarray):
    pass


class TestJsonable:
    """The JSON mapping, case by case, as render_json writes it."""

    def test_primitives_pass_through(self):
        assert render_json(5) == "5\n"
        assert render_json("x") == '"x"\n'
        assert render_json(None) == "null\n"
        assert render_json(True) == "true\n"
        assert render_json(False) == "false\n"

    def test_bool_stays_bool(self):
        assert render_json({"flag": True}) == '{\n  "flag": true\n}\n'
        assert render_json([1, False]) == "[\n  1,\n  false\n]\n"

    def test_fraction_becomes_num_den(self):
        assert json.loads(render_json(Fraction(2, 3))) == {"num": 2, "den": 3}
        assert json.loads(render_json(Fraction(-7, 1))) == {"num": -7, "den": 1}

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            render_json(0.5)
        with pytest.raises(TypeError):
            render_json({"x": [1, 2.0]})

    def test_dataclass_walk(self):
        out = json.loads(render_json(Sample(3, Fraction(1, 2), "hi")))
        assert out == {"count": 3, "ratio": {"num": 1, "den": 2}, "label": "hi"}

    def test_int_keys_sorted_numerically(self):
        out = json.loads(render_json({10: "a", 2: "b", 1: "c"}))
        assert list(out) == ["1", "2", "10"]

    def test_nested_containers(self):
        out = json.loads(render_json({"xs": (1, Fraction(1, 4)), "m": {3: [None]}}))
        assert out == {"xs": [1, {"num": 1, "den": 4}], "m": {"3": [None]}}

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            render_json(object())

    def test_integer_arrays_become_lists(self):
        doc = {"xs": np.array([3, -1], dtype=np.int32), "m": np.eye(2, dtype=int)}
        assert json.loads(render_json(doc)) == {"xs": [3, -1], "m": [[1, 0], [0, 1]]}
        assert render_json(doc) == stdlib_render(doc)
        with pytest.raises(TypeError):
            render_json(np.array([0.5]))


def stdlib_ref(obj):
    """obj with every ndarray replaced by its .tolist(), for the stdlib route."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: stdlib_ref(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(stdlib_ref(v) for v in obj)
    if isinstance(obj, Box):
        return Box(stdlib_ref(obj.value), obj.tag)
    return obj


def stdlib_render(doc) -> str:
    return json.dumps(oracle_jsonable(stdlib_ref(doc)), indent=2) + "\n"


awkward_text = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\n\t\r", "é", "\u2028", "😀", ""]),
)
#: Every signed and unsigned integer dtype, either byte order; the
#: elements span each dtype's whole range.
int_dtypes = st.one_of(hnp.integer_dtypes(), hnp.unsigned_integer_dtypes())
int_arrays = st.one_of(
    hnp.arrays(int_dtypes, st.integers(0, 40)),
    hnp.arrays(np.int32, st.just(0)),
)
leaves = st.one_of(
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
    st.fractions(),
    awkward_text,
    int_arrays,
    st.builds(Sample, st.integers(), st.fractions(), awkward_text),
)
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.integers(), max_size=5),
        st.tuples(inner, inner),
        st.just(()),
        st.dictionaries(awkward_text, inner, max_size=4),
        st.dictionaries(st.integers(-1000, 1000), inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(0, 3), st.sampled_from("0123")), inner, max_size=4),
        st.builds(Box, inner, awkward_text),
    ),
    max_leaves=20,
)


class TestRenderer:
    @settings(max_examples=300)
    @given(documents)
    def test_same_bytes_as_stdlib_route(self, doc):
        assert render_json(doc) == stdlib_render(doc)

    def test_empty_containers_golden(self):
        doc = {"a": [], "b": {}, "c": (), "d": np.zeros(0, dtype=np.int32)}
        assert render_json(doc) == (
            '{\n  "a": [],\n  "b": {},\n  "c": [],\n  "d": []\n}\n'
        )
        assert render_json(doc) == stdlib_render(doc)

    def test_int_array_golden(self):
        doc = {"xs": np.array([3, -1, 2**40], dtype=np.int64), "k": {2: 0, 10: 1}}
        assert render_json(doc) == (
            '{\n  "xs": [\n    3,\n    -1,\n    1099511627776\n  ],\n'
            '  "k": {\n    "2": 0,\n    "10": 1\n  }\n}\n'
        )

    def test_long_arrays_cross_join_blocks(self, monkeypatch):
        monkeypatch.setattr(reporting, "JOIN_BLOCK", 7)
        monkeypatch.setattr(reporting, "KERNEL_MIN", 0)  # every array to the kernel
        for k in (0, 1, 6, 7, 8, 14, 15, 50):
            arr = np.arange(-3, k - 3, dtype=np.int32)
            for doc in ({"a": arr}, {"a": arr.tolist()}, [arr, tuple(arr.tolist())]):
                assert render_json(doc) == stdlib_render(doc), k

    @settings(max_examples=200)
    @given(arr=int_arrays, block=st.integers(1, 9))
    def test_int_arrays_cross_join_blocks(self, arr, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reporting, "JOIN_BLOCK", block)
            mp.setattr(reporting, "KERNEL_MIN", 0)
            doc = {"a": arr, "b": [arr, [arr]]}
            assert render_json(doc) == stdlib_render(doc)

    @pytest.mark.parametrize(
        "dtype",
        [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64],
    )
    def test_dtype_extremes(self, monkeypatch, dtype):
        # -2**63 and 2**64 - 1 among them; a block cut of 3 splits the array
        monkeypatch.setattr(reporting, "JOIN_BLOCK", 3)
        monkeypatch.setattr(reporting, "KERNEL_MIN", 0)
        lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
        values = [lo, hi, 0, 1, lo + 1, hi - 1, lo // 10, hi // 10, 9, 10]
        arr = np.array(values + [v for v in (-1, -9, -10) if v >= lo], dtype=dtype)
        doc = {"xs": arr, "be": arr.astype(arr.dtype.newbyteorder())}
        assert render_json(doc) == stdlib_render(doc)
        assert json.loads(render_json(doc))["xs"] == arr.tolist()

    def test_short_arrays_skip_the_kernel(self, monkeypatch):
        # a kernel pass costs more than str below KERNEL_MIN items, and a
        # report can hold one short array per cycle
        calls = []
        kernel = reporting._text_rows
        monkeypatch.setattr(
            reporting, "_text_rows", lambda *a: calls.append(1) or kernel(*a)
        )
        m = reporting.KERNEL_MIN
        for k, kernel_calls in ((1, 0), (m - 1, 0), (m, 1), (m + 1, 1)):
            calls.clear()
            doc = {"xs": np.arange(-2, k - 2, dtype=np.int32)}
            assert render_json(doc) == stdlib_render(doc), k
            assert len(calls) == kernel_calls, k

    @pytest.mark.parametrize(
        "bad",
        [
            0.5,
            {"x": [1, 2.0]},
            np.array([1.0, 2.0]),
            {"xs": np.zeros(3, dtype=np.float64)},
            np.array([True, False]),
            [np.int64(3)],
            object(),
            {"mode": Mode.ON},
            [Pair(1, 2)],
            OrderedDict(a=1),
            np.arange(3).view(SubArray),
            np.ma.array([1, 2]),
        ],
        ids=["float", "nested float", "float64 array", "nested float64 array",
             "bool array", "numpy scalar", "object", "IntEnum", "namedtuple",
             "OrderedDict", "ndarray subclass", "masked array"],
    )
    def test_refusals(self, bad):
        with pytest.raises(TypeError):
            render_json(bad)
        # the reference mapping refuses the same inputs, subclasses included
        with pytest.raises(TypeError):
            oracle_jsonable(bad)

    @pytest.mark.parametrize(
        "doc, text",
        [
            ({True: 1, 2: 0}, '{\n  "True": 1,\n  "2": 0\n}\n'),
            ({False: 0}, '{\n  "False": 0\n}\n'),
        ],
        ids=["bool and int", "bool alone"],
    )
    def test_bool_keys_sort_as_ints_and_print_as_str(self, doc, text):
        # all-int keys sort by value (True == 1), then each key becomes str(k)
        assert render_json(doc) == text == stdlib_render(doc)


class TestRendering:
    def test_render_is_deterministic(self):
        doc = {"b": Fraction(1, 3), "a": [1, 2, 3]}
        assert render_json(doc) == render_json(doc)
        assert render_json(doc).endswith("\n")
        assert json.loads(render_json(doc)) == {
            "b": {"num": 1, "den": 3},
            "a": [1, 2, 3],
        }

    def test_config_hash_ignores_key_order(self):
        a = config_hash({"q": 7, "n": 2, "a": 1})
        b = config_hash({"a": 1, "n": 2, "q": 7})
        assert a == b
        assert a.startswith("sha256:")
        assert config_hash({"q": 7, "n": 2, "a": 2}) != a

    def test_config_hash_golden(self):
        # the hashes of an analyze and a sweep config, pinned by value
        analyze = {"q": 9, "n": 2, "a": 1, "brute": True}
        sweep = {"r": 2, "s": 1, "n": 3, "t": 100000,
                 "checkpoints": "100,1000", "format": "csv"}
        assert config_hash(analyze) == (
            "sha256:15607e317218222bd02b94915cc68c0b4a71837343be1a3200b8e0b7a9531a5e"
        )
        assert config_hash(sweep) == (
            "sha256:9ce577ddb7ff533419c99c6f50cdfda6ca716583d869c3335bffa8a83376b90e"
        )

    def test_envelope_fields(self):
        env = envelope("analyze", {"q": 7}, {"ok": True})
        assert env["schema"] == SCHEMA == "monodyn/1"
        assert env["version"] == __version__
        assert env["command"] == "analyze"
        assert env["seed"] == 0
        assert env["input_hash"] == config_hash({"q": 7})
        assert env["result"] == {"ok": True}

    def test_comment_header_lines(self):
        lines = comment_header("sweep", {"r": 1})
        assert lines[0] == "schema: monodyn/1"
        assert lines[1] == "command: sweep"
        assert lines[2] == "seed: 0"
        assert lines[3].startswith("input_hash: sha256:")


class TestCsv:
    def test_sweep_csv_golden(self):
        rep = empirical_mean(1, 1, 2, 100, checkpoints=[10, 100])
        text = sweep_csv(rep, ["one", "two"])
        lines = text.splitlines()
        assert lines[0] == "# one"
        assert lines[1] == "# two"
        assert lines[2] == "t,pi_t,empirical_num,empirical_den,analytic_num,analytic_den"
        assert lines[3] == "10,4,2,1,2,1"
        assert lines[4] == "100,25,2,1,2,1"
        assert text.endswith("\n")

    def test_ff_csv_golden(self):
        rep = oscillation_experiment(2, 3, 40)
        text = ff_csv(rep, comment_header("ffield", {"q": 2, "r": 3}))
        lines = text.splitlines()
        assert lines[0].startswith("# schema: monodyn/1")
        assert lines[4] == "t,pi_K,C_r,ratio_num,ratio_den,subsequence_tag"
        assert lines[5] == "1,2,0,0,1,B"
        assert lines[6] == "2,3,1,1,3,A"
        assert len(lines) == 5 + 40
