import argparse
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import monodyn.cli
import monodyn.function_field
import monodyn.graph_engine
import monodyn.mean_values
import monodyn.monomial
import monodyn.reporting
import monodyn.verify
from monodyn.cli import main
from monodyn.errors import InputRangeError


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def assert_no_floats(node):
    assert not isinstance(node, float)
    if isinstance(node, dict):
        for k, v in node.items():
            assert_no_floats(k)
            assert_no_floats(v)
    elif isinstance(node, list):
        for v in node:
            assert_no_floats(v)


#: Code that breaks one golden check of the verify battery; run under
#: python -O, each check must still fail.
BROKEN_GOLDENS = {
    "_check_profiles": (
        "real = monomial.profile\n"
        "monomial.profile = lambda q, n: real(q, n + 1)"
    ),
    "_check_oscillation": (
        "function_field.dirichlet_density_S = lambda q, r: Fraction(1, 7)"
    ),
    "_check_ff_means": (
        "function_field.dirichlet_mean_solutions = lambda q, m: Fraction(0)"
    ),
    "_check_divergence": "mean_values.analytic_N = lambda r, s, n: 0",
}


class TestAnalyze:
    def test_basic_envelope(self, capsys):
        code, out, err = run(capsys, "analyze", "--q", "7", "--n", "2")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["schema"] == "monodyn/1"
        assert doc["command"] == "analyze"
        assert doc["seed"] == 0
        assert doc["input_hash"].startswith("sha256:")
        res = doc["result"]
        assert res["q_star"] == 3 and res["r_hat"] == 2
        assert res["periodic_by_period"] == {"1": 2, "2": 2}
        assert res["cycles_by_length"] == {"1": 2, "2": 1}
        assert res["periodic_total"] == 4 and res["cycle_total"] == 3
        assert_no_floats(doc)

    def test_brute_cross_check(self, capsys):
        code, out, _ = run(capsys, "analyze", "--q", "19", "--n", "2", "--brute")
        assert code == 0
        brute = json.loads(out)["result"]["brute"]
        assert brute["match"] is True
        assert brute["periodic_by_period"] == {"1": 2, "2": 2, "6": 6}
        assert brute["component_count"] == 4

    def test_nonunit_coefficient(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--q", "5", "--n", "3", "--a", "3", "--brute"
        )
        assert code == 0
        brute = json.loads(out)["result"]["brute"]
        assert brute["has_nonzero_fixed"] is False
        assert brute["periodic_by_period"] == {"1": 1, "2": 4}
        assert brute["periodic_total"] == 5
        assert brute["match"] is True

    def test_brute_match_reads_the_graph_criteria(self, capsys, monkeypatch):
        # the census of 2 * x**2 on GF(4) matches, but a criterion that
        # denies its 2-cycle fails the judge, and "match" says so
        deny_at(monkeypatch, monodyn.monomial, "has_r_periodic", (4, 2, 2))
        argv = ("analyze", "--q", "4", "--n", "2", "--a", "2", "--brute")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        brute = json.loads(out)["result"]["brute"]
        assert brute["cycles_by_length"] == {"1": 2, "2": 1}
        assert brute["match"] is False

    def test_composite_q_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--q", "12", "--n", "2")
        assert code == 2
        assert "prime power" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--n", "3"],
            ["analyze", "--n", "3"],
            ["ffield", "--density", "--r", "3"],
        ],
        ids=["graph", "analyze", "ffield"],
    )
    def test_q_past_63_bits_named_in_error(self, capsys, argv):
        q = str(2**64 + 13)
        code, out, err = run(capsys, *argv, "--q", q)
        assert code == 2 and out == ""
        assert err == f"error: q must be at most 2**63 - 1, got {q}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--r", "2", "--t", "100", "--n"],
            ["ffield", "--q", "3", "--dmean", "--r", "4", "--n"],
            ["analyze", "--q", "7", "--n"],
            ["analyze", "--n", "2", "--q"],
        ],
        ids=["sweep", "dmean", "analyze-n", "analyze-q"],
    )
    def test_long_integer_shortened_in_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, str(7**4900))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200, err[:200]
        assert " 955863921769...(4141 digits)" in err, err

    def test_unwritable_output_is_bad_input(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(
            capsys, "analyze", "--q", "7", "--n", "2", "--output", str(target)
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(target) in err
        assert "Traceback" not in err

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "analyze", "--q", "49", "--n", "3", "--brute")
        _, second, _ = run(capsys, "analyze", "--q", "49", "--n", "3", "--brute")
        assert first == second


class TestGraph:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "graph", "--q", "2", "--n", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph state_space {")
        assert "// schema: monodyn/1" in out
        assert "0 -> 0;" in out and "1 -> 1;" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "graph", "--q", "7", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["successor"] == [0, 1, 4, 2, 2, 4, 1]
        assert_no_floats(doc)

    def test_field_cap(self, capsys):
        code, _, err = run(capsys, "graph", "--q", str(2**23), "--n", "2")
        assert code == 3
        assert "error" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        code, out, _ = run(
            capsys, "graph", "--q", "7", "--n", "2", "--output", str(target)
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "graph"

    def test_exponent_reduced_before_power(self, capsys):
        # x**65536 is the identity on GF(2**16); the exponent is reduced
        # modulo q - 1 before the successor array is formed.  Best of two
        # runs, against about 2.6 s per run with the full exponent.
        secs = []
        for _ in range(2):
            t0 = time.perf_counter()
            code, out, _ = run(capsys, "graph", "--q", "65536", "--n", "65536")
            secs.append(time.perf_counter() - t0)
            assert code == 0
        assert json.loads(out)["result"]["successor"] == list(range(65536))
        assert min(secs) < 1.0, secs


class TestRenderTracing:
    """A tracer that wraps render_json by name sees each JSON report once.

    Per-layer tracing replaces `render_json` in every module holding it
    and takes the length of what it returns as the bytes of the report;
    that holds only while the command calls it once and writes its
    result unchanged.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ("graph", "--q", "8191", "--n", "3", "--format", "json"),
            ("analyze", "--q", "729", "--n", "4", "--brute"),
            ("ffield", "--q", "3", "--dmean", "--r", "4", "--n", "2"),
        ],
        ids=["graph", "analyze", "ffield-dmean"],
    )
    def test_one_call_whose_length_is_written(self, argv, tmp_path, monkeypatch):
        orig = monodyn.reporting.render_json
        lengths = []

        def counting(doc):
            text = orig(doc)
            lengths.append(len(text))
            return text

        holders = [
            (mod, attr)
            for name, mod in sorted(sys.modules.items())
            if name.startswith("monodyn.") and mod is not None
            for attr, val in vars(mod).items()
            if val is orig
        ]
        assert (monodyn.cli, "render_json") in holders
        assert (monodyn.reporting, "render_json") in holders
        for mod, attr in holders:
            monkeypatch.setattr(mod, attr, counting)
        target = tmp_path / "report.json"
        assert main([*argv, "--output", str(target)]) == 0
        assert lengths == [target.stat().st_size]


#: (argv, exit code, digest of stdout and stderr) for reports, error
#: lines and exit codes, recorded before the report step of `main` was
#: folded into one; every one must stay byte-identical.  The two
#: `ffield ... --format csv` entries without --oscillate were recorded
#: again when that format, once ignored there, became an input error.
REPORT_DIGESTS = [
    ("analyze --q 7 --n 2", 0, "dabc69918c4360f03c3d02f9ecda3642"),
    ("analyze --q 19 --n 2 --a 3", 0, "4b6c834ca0960b94fcf81319e9060b44"),
    ("analyze --q 19 --n 2 --brute", 0, "6b99a64ff786fc8edcb730f1bc824e74"),
    ("analyze --q 5 --n 3 --a 3 --brute", 0, "50779f445e3767f60082c211308a23ec"),
    ("analyze --q 729 --n 4 --brute", 0, "7b367571ca2a644ae69c0a044ae90bb0"),
    ("analyze --q 729 --n 4 --a 5 --brute", 0, "dd2d0f0e9464443636875694c5663929"),
    ("analyze --q 65536 --n 65536 --brute", 0, "98f076dfb46d6921d67386a8b8a9ca7b"),
    # extension fields whose reduced exponent makes the multiply run
    ("analyze --q 59049 --n 4 --a 7 --brute", 0, "bdb2d660c23b678a033a8e94dc00e420"),
    ("analyze --q 12 --n 2", 2, "454b62dfad4d7b96c304ab8eccbc2f6f"),
    ("graph --q 7 --n 2", 0, "67f7ba3e7c76b48f196a010edf8c690e"),
    ("graph --q 7 --n 2 --format dot", 0, "81886c64d809a246a21e6acf89ec984c"),
    ("graph --q 9 --n 2 --a 2", 0, "e877f2b4d545fd787822e340cf9bee49"),
    ("graph --q 9 --n 2 --a 2 --format dot", 0, "4bf1ea87d208397777d67d26feaf73e3"),
    ("graph --q 9 --n 3 --format dot", 0, "311a029200ab4002b62b9d5bbe3d8fb9"),
    ("graph --q 729 --n 4", 0, "33342e13d0bb73666278c2a2d5557b4e"),
    ("graph --q 729 --n 4 --format dot", 0, "929a2e4bdd5f4189f491a63a268ae959"),
    ("graph --q 1024 --n 3 --a 5", 0, "327a20a279be0386df0908a172a11d99"),
    ("graph --q 2209 --n 5 --a 100 --format dot", 0, "00fc9b3ea23df7dafa481c88caffab07"),
    ("graph --q 8191 --n 3 --a 5", 0, "718451e8a348f81609758cb37085c7a9"),
    ("graph --q 8191 --n 3 --format dot", 0, "3e89cd4bd373a0e3177d32e5cb3f6bff"),
    # 65537 nodes: both per-node writers cross a JOIN_BLOCK boundary
    ("graph --q 65537 --n 3", 0, "a49caf7a16081cb3a74acf15389c3d79"),
    ("graph --q 65537 --n 3 --format dot", 0, "b1e24e1a131e0c8be18ffe57d9a8d9be"),
    # tails, 65534 cycle ids of -1 and the 2**16 block cut
    ("graph --q 65537 --n 2 --a 3", 0, "3345b12f681867207303996d51f3dd70"),
    ("graph --q 65537 --n 2 --a 3 --format dot", 0, "5518bde7a59936caddcade91627a7d5d"),
    (
        "sweep --r 2 --s 2 --n 3 --t 5000 --checkpoints 100,1000",
        0,
        "94c48b567573089727cc08920359f8d8",
    ),
    (
        "sweep --r 2 --s 2 --n 3 --t 5000 --checkpoints 100,1000 --format csv",
        0,
        "0451def19c11befaeced281d567bd250",
    ),
    # three sieve segments of 2**21, checkpoints astride the first edge
    (
        "sweep --r 6 --s 2 --n 3 --t 4500000"
        " --checkpoints 2097151,2097152,2097153 --format csv",
        0,
        "4755741c49d67e03f2900fd1ee000310",
    ),
    ("sweep --r 3 --n 2 --t 1000 --threads 0", 2, "36acd139844e641be51748b93dd1c5a4"),
    ("ffield --q 3 --density --r 4", 0, "dac3e06d0cccb54efd31502ccf916339"),
    (
        "ffield --q 3 --density --r 4 --format csv",
        2,
        "e95c56c6c56f30604e06f5abfaf48f9c",
    ),
    ("ffield --q 3 --dmean --r 4 --n 2", 0, "8c63cd51654949778481850a302d1fa4"),
    (
        "ffield --q 3 --dmean --r 4 --n 2 --format csv",
        2,
        "e95c56c6c56f30604e06f5abfaf48f9c",
    ),
    ("ffield --q 2 --oscillate --r 3 --t 40", 0, "6c47436a1fd761b49d69395a6d92888c"),
    (
        "ffield --q 2 --oscillate --r 3 --t 40 --format csv",
        0,
        "9cc233bb8bf78530f1104f76dd73e632",
    ),
    ("ffield --q 3 --oscillate --r 2", 2, "b5f3e0532d97b09061f22dc0d7bcbea7"),
    # benchmark-scale series: 1811 and 1220 degrees, counts of up to 583 digits
    (
        "ffield --q 2 --r 4095 --t 1811 --oscillate --format csv",
        0,
        "3bee6e04c34ae933ccbb76d7ecfa5a08",
    ),
    (
        "ffield --q 3 --r 364 --t 1220 --oscillate",
        0,
        "649a928b933e04e48c27ccc0e1ea0d4e",
    ),
]


class TestReportDigests:
    @pytest.mark.parametrize(
        "argv, code, digest", REPORT_DIGESTS, ids=[c[0] for c in REPORT_DIGESTS]
    )
    def test_output_and_exit_code_unchanged(self, capsys, argv, code, digest):
        got, out, err = run(capsys, *argv.split())
        h = hashlib.sha256()
        for part in (out, err):
            h.update(hashlib.sha256(part.encode()).digest())
        assert (got, h.hexdigest()[:32]) == (code, digest), (out[:200], err)


class TestSweep:
    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--r", "1", "--n", "2", "--t", "1000"
        )
        assert code == 0
        doc = json.loads(out)
        res = doc["result"]
        assert res["analytic"] == {"num": 2, "den": 1}
        assert res["final_abs_error"] == {"num": 0, "den": 1}
        assert [c["t"] for c in res["checkpoints"]] == [10, 100, 1000]
        assert_no_floats(doc)

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--r", "1", "--n", "3", "--t", "100",
            "--checkpoints", "10,100", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema: monodyn/1"
        assert lines[4] == "t,pi_t,empirical_num,empirical_den,analytic_num,analytic_den"
        assert len(lines) == 7

    def test_csv_reruns_identical(self, capsys):
        argv = ("sweep", "--r", "2", "--n", "2", "--t", "5000", "--format", "csv")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_bad_checkpoint_list(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--r", "1", "--n", "2", "--t", "100",
            "--checkpoints", "10,abc",
        )
        assert code == 2
        assert "checkpoint" in err

    @pytest.mark.parametrize("text", [",", "", " , "])
    def test_empty_checkpoint_list(self, capsys, text):
        # an empty list is an input error, not a request for the defaults
        code, out, err = run(
            capsys,
            "sweep", "--r", "1", "--n", "2", "--t", "100",
            "--checkpoints", text,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_out_of_range_checkpoint(self, capsys):
        code, _, _ = run(
            capsys,
            "sweep", "--r", "1", "--n", "2", "--t", "100",
            "--checkpoints", "500",
        )
        assert code == 2

    def test_threads_flag_matches_serial(self, capsys):
        base = ("sweep", "--r", "2", "--s", "2", "--n", "3", "--t", "30000")
        _, serial, _ = run(capsys, *base)
        _, parallel, _ = run(capsys, *base, "--threads", "3")
        assert serial == parallel


    def test_zero_threads_rejected(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--r", "1", "--n", "2", "--t", "100", "--threads", "0"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "0" in err

    def test_threads_over_cap_rejected(self, capsys, monkeypatch):
        # refused before any work: a pool, had one been asked for, raises
        def no_pool(**kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        too_many = str(monodyn.mean_values.MAX_WORKERS + 1)
        argv = ("sweep", "--r", "1", "--n", "2", "--t", "100", "--threads", too_many)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and too_many in err
        assert err.count("\n") == 1

    def test_huge_r_refused_before_any_power(self, capsys):
        # n**r - 1 for r = 10**7 has millions of digits; the cap on r
        # must refuse it before the power is formed
        t0 = time.perf_counter()
        code, out, err = run(capsys, "sweep", "--r", "10000000", "--n", "3", "--t", "2")
        assert code == 2 and out == ""
        assert "largest admissible r is 39" in err
        assert time.perf_counter() - t0 < 1.0

    def test_sieve_bound_is_a_resource_cap(self, capsys):
        argv = ("sweep", "--r", "1", "--n", "2", "--t")
        code, out, err = run(capsys, *argv, "100000001")
        assert (code, out) == (3, "")
        assert err == "error: sieve bound 100000001 exceeds the cap 100000000\n"
        code, out, err = run(capsys, *argv, "1")
        assert (code, out) == (2, "")
        assert err == "error: t_max must be in [2, 100000000], got 1\n"

    def test_no_admissible_exponent_named(self, capsys):
        n = str(2**63 + 1)
        code, out, err = run(capsys, "sweep", "--r", "1", "--n", n, "--t", "10")
        assert (code, out) == (2, "")
        assert err == (
            f"error: n**r - 1 exceeds 2**63 - 1; for n = {n} no r is admissible\n"
        )

    def test_threads_environment_is_ignored(self, capsys, monkeypatch):
        argv = ("sweep", "--r", "12", "--n", "2", "--t", "100000", "--format", "csv")
        plain = run(capsys, *argv)
        monkeypatch.setenv("MONODYN_THREADS", "abc")
        assert run(capsys, *argv) == plain
        assert plain[0] == 0


class TestFfield:
    def test_density_mode(self, capsys):
        code, out, _ = run(capsys, "ffield", "--q", "2", "--r", "3", "--density")
        assert code == 0
        res = json.loads(out)["result"]
        assert res["dirichlet_density"] == {"num": 1, "den": 2}
        assert res["subsequence_limits"] == [
            {"num": 2, "den": 3},
            {"num": 1, "den": 3},
        ]

    def test_dmean_mode(self, capsys):
        code, out, _ = run(
            capsys, "ffield", "--q", "3", "--n", "2", "--r", "1", "--dmean"
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["dirichlet_D"] == {"num": 2, "den": 1}

    def test_oscillate_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "ffield", "--q", "2", "--r", "3", "--t", "40",
            "--oscillate", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[4] == "t,pi_K,C_r,ratio_num,ratio_den,subsequence_tag"
        assert len(lines) == 5 + 40

    def test_oscillate_missing_t(self, capsys):
        code, _, err = run(capsys, "ffield", "--q", "2", "--r", "3", "--oscillate")
        assert code == 2
        assert "--t" in err

    def test_oscillate_past_int_str_limit(self, capsys):
        # 2**20000 has 6021 digits, over the default limit of 4300
        code, out, err = run(
            capsys, "ffield", "--q", "2", "--r", "3", "--t", "20000", "--oscillate"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("q, r", [("2", "15013"), ("3", "1000000007")])
    def test_density_past_int_str_limit(self, capsys, q, r):
        # ord_r(q) is 15012 and 500000003: the limits' q**ord_r(q) has
        # more digits than the int-to-str limit of 4300, or never finishes
        code, out, err = run(capsys, "ffield", "--q", q, "--r", r, "--density")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ramified_r(self, capsys):
        code, _, _ = run(capsys, "ffield", "--q", "2", "--r", "4", "--density")
        assert code == 2

    @pytest.mark.parametrize(
        "q, r, t",
        [(2, 3, t) for t in range(11, 19)]
        + [(2, 5, t) for t in range(11, 19)]
        + [(3, 4, t) for t in range(7, 13)]
        + [(5, 3, t) for t in range(5, 9)],
    )
    def test_oscillate_small_degree_bound_passes(self, capsys, q, r, t):
        # the subsequence errors may still rise near a small t; that is
        # no failed cross-check
        code, out, err = run(
            capsys, "ffield", "--q", str(q), "--r", str(r), "--t", str(t),
            "--oscillate",
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["result"]["series"]) == t

    def test_density_of_r_zero_refused(self, capsys):
        code, out, err = run(capsys, "ffield", "--q", "2", "--r", "0", "--density")
        assert (code, out, err) == (2, "", "error: r must be >= 1, got 0\n")

    @pytest.mark.parametrize(
        "mode", [["--density"], ["--dmean", "--n", "2"]], ids=["density", "dmean"]
    )
    def test_csv_refused_without_writer(self, capsys, mode):
        code, out, err = run(
            capsys, "ffield", "--q", "3", "--r", "4", *mode, "--format", "csv"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--format csv" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            ("--q 3 --density --r 4 --t 9 --n 5", "--n is not read by --density"),
            ("--q 3 --density --r 4 --t 9", "--t is not read by --density"),
            ("--q 3 --dmean --r 4 --n 2 --t 9", "--t is not read by --dmean"),
            ("--q 2 --oscillate --r 3 --t 40 --n 7", "--n is not read by --oscillate"),
        ],
        ids=["density-n", "density-t", "dmean-t", "oscillate-n"],
    )
    def test_option_the_mode_does_not_read_refused(self, capsys, argv, line):
        code, out, err = run(capsys, "ffield", *argv.split())
        assert (code, out, err) == (2, "", f"error: {line}\n")


#: `monodyn verify --scope quick --seed 7` with each [x.xxs] masked.
QUICK_VERIFY = """\
PASS  structure_sweep  [s]  (553 systems over 79 fields)
PASS  dichotomy_sweep  [s]  (395 random twisted systems)
PASS  mean_identities  [s]  (analytic = Dirichlet on all tested (r, s, n))
PASS  sweep_convergence  [s]  (means within 1/50 of limits at t = 20000)
PASS  golden_profiles  [s]
PASS  ff_oscillation  [s]
PASS  ff_dirichlet_means  [s]
PASS  divergence  [s]
OK: 8/8 checks passed (scope=quick, seed=7)
"""


class TestVerify:
    def test_quick_scope_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--scope", "quick", "--seed", "7")
        assert code == 0 and err == ""
        assert re.sub(r"\[\d+\.\d\ds\]", "[s]", out) == QUICK_VERIFY

    def test_detects_broken_predicate(self, capsys, monkeypatch):
        monkeypatch.setattr(monodyn.graph_engine, "star_connected", lambda st: False)
        code, out, _ = run(capsys, "verify", "--scope", "quick")
        assert code == 1
        line = next(ln for ln in out.splitlines() if "structure_sweep" in ln)
        assert line.startswith("FAIL  structure_sweep  [")
        assert re.search(r"\(\d+ failures, first: \('structure', ", line), line

    def test_existence_criterion_checked_against_brute(self, monkeypatch):
        deny_at(monkeypatch, monodyn.monomial, "has_r_periodic", (19, 2, 6))
        failures, counts = monodyn.verify.structure_sweep(30, 3)
        assert counts == {"fields": 16, "systems": 32}
        assert [f[:3] for f in failures] == [("structure", 19, 2)]

    def test_defect_in_a_check_is_internal_error(self, capsys, monkeypatch):
        # a check that crashes is a defect (exit 4), not a failed check (exit 1)
        def broken(q, n):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(monodyn.monomial, "profile", broken)
        code, out, err = run(capsys, "verify", "--scope", "quick")
        assert code == 4 and out == ""
        assert err == "error: internal: TypeError: unsupported operand\n"

    def test_unknown_scope_rejected(self):
        with pytest.raises(InputRangeError):
            monodyn.verify.run_verification("bogus")

    def test_detects_broken_formula(self, capsys, monkeypatch):
        real = monodyn.monomial.periodic_count

        def wrong(q, n, r):
            val = real(q, n, r)
            return val + 2 if (q, n, r) == (7, 2, 2) else val

        monkeypatch.setattr(monodyn.monomial, "periodic_count", wrong)
        code, out, _ = run(capsys, "verify", "--scope", "quick")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("check", sorted(BROKEN_GOLDENS))
    def test_golden_checks_fail_under_optimize(self, check):
        script = "\n".join([
            "from fractions import Fraction",
            "from monodyn import function_field, mean_values, monomial, verify",
            BROKEN_GOLDENS[check],
            "try:",
            f"    verify.{check}()",
            "except AssertionError as exc:",
            "    print('FAIL', exc)",
            "else:",
            "    print('PASS')",
        ])
        src = str(Path(monodyn.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("FAIL"), proc.stdout


def lie_at(monkeypatch, module, name, key, delta):
    """Make module.name(*key) return delta more than it should.

    A dict value (a class law) is shifted entry by entry, by the entries
    of the dict delta.
    """
    real = getattr(module, name)

    def shift(val):
        if isinstance(val, dict):
            return {g: P + delta.get(g, 0) for g, P in val.items()}
        return val + delta

    def lying(*args):
        return shift(real(*args)) if args == key else real(*args)

    monkeypatch.setattr(module, name, lying)


def deny_at(monkeypatch, module, name, key):
    """Make the predicate module.name(*key) give the opposite answer."""
    real = getattr(module, name)

    def lying(*args):
        return not real(*args) if args == key else real(*args)

    monkeypatch.setattr(module, name, lying)


def lying_graph(monkeypatch, key, change):
    """Apply change to the successor array of the system key = (q, n, a)."""
    real = monodyn.graph_engine.successor_array

    def lying(sys):
        succ = real(sys)
        if (sys.field.q, sys.n, sys.a_index) == key:
            change(succ)
        return succ

    monkeypatch.setattr(monodyn.graph_engine, "successor_array", lying)


class TestBatteryFailurePaths:
    """Each failure a sweep can report, from one route that lies about one
    input while staying consistent with itself."""

    def test_structure_formula(self, monkeypatch):
        # two points of period 2 on GF(19) under x**2 moved to period 1:
        # the total and the divisibility by the period still hold
        lie_at(monkeypatch, monodyn.monomial, "periodic_count", (19, 2, 1), 2)
        lie_at(monkeypatch, monodyn.monomial, "periodic_count", (19, 2, 2), -2)
        failures, _ = monodyn.verify.structure_sweep(19, 2)
        assert failures == [("formula", 19, 2, {1: 2, 2: 2, 6: 6}, {1: 4, 6: 6})]

    def test_structure_orders(self, monkeypatch):
        # the orders of 4 (order 9) and 7 (order 3) in GF(19) swapped
        real = monodyn.graph_engine.element_orders

        def swapped(spec):
            orders = real(spec)
            if spec.q == 19:
                orders = orders.copy()
                orders[[4, 7]] = orders[[7, 4]]
            return orders

        monkeypatch.setattr(monodyn.graph_engine, "element_orders", swapped)
        failures, _ = monodyn.verify.structure_sweep(19, 2)
        expected = "index 4: cycle length 6, expected 2 for order 3"
        assert failures == [("orders", 19, 2, expected)]

    def test_dichotomy_total(self, monkeypatch):
        # 6 * x**3 on GF(7) has no nonzero fixed point; the leaf 2 is made one
        def fix_a_leaf(succ):
            assert succ.tolist() == [0, 6, 6, 1, 6, 1, 1]
            succ[2] = 2

        lying_graph(monkeypatch, (7, 3, 6), fix_a_leaf)
        failures, _ = monodyn.verify.dichotomy_sweep(7, 4, 5, 0)
        assert failures == [("total", 7, 3, 6)]

    def test_dichotomy_formula(self, monkeypatch):
        # 2 * x**3 on GF(7) fixes 2 and 5; they are made a 2-cycle instead
        def pair_fixed_points(succ):
            assert succ.tolist() == [0, 2, 2, 5, 2, 5, 5]
            succ[[2, 5]] = [5, 2]

        lying_graph(monkeypatch, (7, 3, 2), pair_fixed_points)
        failures, _ = monodyn.verify.dichotomy_sweep(7, 4, 5, 0)
        assert failures == [("formula", 7, 3, 2)]

    def test_dichotomy_criteria(self, monkeypatch):
        # GF(4) under x**2 has a 2-cycle; a criterion that denies it fails
        # every (4, 2) draw, all on the power side since n - 1 = 1
        deny_at(monkeypatch, monodyn.monomial, "has_r_periodic", (4, 2, 2))
        failures, _ = monodyn.verify.dichotomy_sweep(7, 4, 5, 0)
        assert sorted(failures) == [("formula", 4, 2, a) for a in (1, 1, 2, 3)]

    @pytest.mark.parametrize(
        "module, name, key, delta, first",
        [
            (monodyn.mean_values, "dirichlet_D", (2, 1, 3), 1, (2, 1, 3, 2, 3)),
            (monodyn.mean_values, "analytic_I", (12, 1), 1, ("tau", 12)),
            # half the mass of class 1 moved to class 12: still sums to 1
            (
                monodyn.mean_values,
                "class_law",
                (12, 1),
                {1: -Fraction(1, 2), 12: Fraction(1, 2)},
                ("tau", 12),
            ),
            (monodyn.verify, "v_s", (2, 8), -1, (2, 8, 4, 3)),
        ],
        ids=["route mismatch", "tau analytic", "tau density", "v_s"],
    )
    def test_mean_identities(self, monkeypatch, module, name, key, delta, first):
        lie_at(monkeypatch, module, name, key, delta)
        failures, _ = monodyn.verify.mean_identities((3, 2, 3), 20, (10, 3))
        assert failures == [first]

    def test_sweep_not_converging(self, monkeypatch):
        # the counts at the two checkpoints of (1, 1, 3) swapped
        real = monodyn.mean_values.empirical_mean

        def swapped(r, s, n, t_max, **kwargs):
            rep = real(r, s, n, t_max, **kwargs)
            if (r, s, n) != (1, 1, 3):
                return rep
            small, big = rep.checkpoints
            counts = ("prime_count", "total", "mean")
            return dataclasses.replace(
                rep,
                checkpoints=(
                    dataclasses.replace(small, **{k: getattr(big, k) for k in counts}),
                    dataclasses.replace(big, **{k: getattr(small, k) for k in counts}),
                ),
                final_abs_error=abs(small.mean - rep.analytic),
            )

        monkeypatch.setattr(monodyn.mean_values, "empirical_mean", swapped)
        ref = real(1, 1, 3, 20_000, checkpoints=[2_000, 20_000])
        err_small = abs(ref.checkpoints[0].mean - ref.analytic)
        failures, _ = monodyn.verify.sweep_convergence(2_000, 20_000)
        assert failures == [(1, 1, 3, ref.final_abs_error, err_small)]

    def test_sweep_degenerate_mean_off_two(self, monkeypatch):
        # one prime of (1, 1, 2) counted with 3 points instead of 2
        real = monodyn.mean_values.empirical_mean

        def off_by_one(r, s, n, t_max, **kwargs):
            rep = real(r, s, n, t_max, **kwargs)
            if (r, s, n) != (1, 1, 2):
                return rep
            first, *rest = rep.checkpoints
            total = first.total + 1
            first = dataclasses.replace(
                first, total=total, mean=Fraction(total, first.prime_count)
            )
            return dataclasses.replace(rep, checkpoints=(first, *rest))

        monkeypatch.setattr(monodyn.mean_values, "empirical_mean", off_by_one)
        failures, _ = monodyn.verify.sweep_convergence(2_000, 20_000)
        assert failures == [(1, 1, 2, "mean not identically 2")]

    def test_ff_means_count_pass(self, monkeypatch):
        # one quartic too many over GF(2): the degree-weighted sum
        # first misses 2**D at D = 4
        real = monodyn.function_field.irreducible_counts

        def one_more_quartic(q, t):
            counts = real(q, t)
            if q == 2 and t >= 4:
                counts[3] += 1
            return counts

        monkeypatch.setattr(
            monodyn.function_field, "irreducible_counts", one_more_quartic
        )
        with pytest.raises(AssertionError) as exc:
            monodyn.verify._check_ff_means()
        assert exc.value.args == ((2, 4),)


class TestInternalErrors:
    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("disk on fire\nsecond line")

        monkeypatch.setattr(monodyn.cli, "_cmd_analyze", broken)
        code, out, err = run(capsys, "analyze", "--q", "7", "--n", "2")
        assert code == 4 and out == ""
        assert err == "error: internal: RuntimeError: disk on fire second line\n"
        assert "Traceback" not in err

    def test_typed_errors_keep_their_codes(self, capsys, monkeypatch):
        from monodyn.errors import InvariantViolation

        def broken(args):
            raise InvariantViolation("made up")

        monkeypatch.setattr(monodyn.cli, "_cmd_graph", broken)
        code, _, err = run(capsys, "graph", "--q", "7", "--n", "2")
        assert code == 1 and err.startswith("invariant violated")


#: Fuzz values: edges and small fields, a few large in-cap values, and
#: over-cap values that must be refused before any work starts.  Graph
#: and --brute fields stay at q <= 2**16: their in-cap cost grows with q
#: (GF(2**22) takes minutes), and at this size a call takes under a second.
FIELD_Q = st.integers(-2, 70) | st.sampled_from((243, 256, 4096, 65521))
OVER_CAP = st.sampled_from((2**22 + 1, 2**63, 2**64 + 13, 10**8 + 7))
SMALL = FIELD_Q | OVER_CAP
ANY = SMALL | st.sampled_from((4194301, 4194304, 2**31 - 1))


@st.composite
def cli_argv(draw):
    def opt(name, values):
        # one token: argparse takes a value such as "-2,abc" for an option
        return draw(st.just([]) | values.map(lambda v: [f"{name}={v}"]))

    command = draw(st.sampled_from(("analyze", "graph", "sweep", "ffield")))
    if command in ("analyze", "graph"):
        brute = command == "analyze" and draw(st.booleans())
        q = draw(SMALL if brute or command == "graph" else ANY)
        argv = [command, "--q", str(q), "--n", str(draw(ANY))] + opt("--a", ANY)
        if command == "graph":
            return argv + opt("--format", st.sampled_from(("dot", "json")))
        return argv + (["--brute"] if brute else [])
    if command == "sweep":
        argv = [command, "--r", str(draw(ANY)), "--n", str(draw(ANY))]
        argv += ["--t", str(draw(ANY))] + opt("--s", ANY)
        points = st.lists(SMALL.map(str) | st.just("abc"), max_size=4)
        argv += opt("--checkpoints", points.map(",".join))
        argv += opt("--threads", st.sampled_from((1, 0, -1, 65, 2**63)))
        return argv + opt("--format", st.sampled_from(("json", "csv")))
    mode = draw(st.sampled_from(("--density", "--dmean", "--oscillate")))
    argv = [command, "--q", str(draw(ANY)), mode] + opt("--r", ANY) + opt("--n", ANY)
    return argv + opt("--t", SMALL) + opt("--format", st.sampled_from(("json", "csv")))


class TestFuzz:
    @given(argv=cli_argv())
    def test_cli_exits_in_documented_set(self, argv):
        def no_pool(**kwargs):
            raise AssertionError("a worker pool was started")

        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            secs = time.perf_counter() - t0
        # exit 1 means a failed cross-check, which no input may cause
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().count("\n") <= 1, err.getvalue()
        assert secs < 5, (argv, secs)


#: Modules that only some commands need, in the order they are reported.
HEAVY = ("numpy", "monodyn.finite_field", "monodyn.graph_engine",
         "monodyn.verify", "concurrent.futures")
#: What a command that builds a graph loads.
ARRAYS = ["numpy", "monodyn.finite_field", "monodyn.graph_engine"]


def heavy_loaded(lines: list[str]) -> list:
    """Run the lines in a fresh interpreter with stdout and stderr
    captured; their global `code`, if any, then the HEAVY modules loaded."""
    script = "\n".join([
        "import contextlib, io, json, sys",
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):",
        *(f"    {line}" for line in lines),
        f"loaded = [m for m in {HEAVY!r} if m in sys.modules]",
        "print(json.dumps([globals().get('code'), loaded]))",
    ])
    src = str(Path(monodyn.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImports:
    """Each command imports only the layers it runs: the closed forms,
    --help and their refusals start without numpy."""

    @pytest.mark.parametrize(
        "module", ["cli", "monomial", "function_field", "mean_values"]
    )
    def test_closed_form_modules_load_nothing_heavy(self, module):
        assert heavy_loaded([f"import monodyn.{module}"]) == [None, []]

    @pytest.mark.parametrize(
        "argv, code, loaded",
        [
            (["analyze", "--q", "1000003", "--n", "7"], 0, []),
            (["ffield", "--q", "3", "--r", "364", "--density"], 0, []),
            (["ffield", "--q", "3", "--n", "2", "--r", "4", "--dmean"], 0, []),
            (["ffield", "--q", "2", "--r", "3", "--t", "12", "--oscillate"], 0, []),
            (["analyze", "--q", "12", "--n", "2"], 2, []),
            (["--help"], 0, []),
            (["graph", "--help"], 0, []),
            (["analyze", "--q", "7", "--n", "2", "--bogus"], 2, []),
            (["sweep", "--r", "2", "--n", "3", "--t", "1000"], 0, ["numpy"]),
            (["graph", "--q", "9", "--n", "2"], 0, ARRAYS),
            (["analyze", "--q", "7", "--n", "2", "--a", "5"], 0, ARRAYS),
            (["analyze", "--q", "7", "--n", "2", "--a", "5", "--brute"], 0, ARRAYS),
        ],
        ids=["analyze", "density", "dmean", "oscillate", "refusal", "help",
             "graph-help", "unrecognized", "sweep", "graph", "analyze-a",
             "analyze-brute"],
    )
    def test_command_loads_only_its_layers(self, argv, code, loaded):
        lines = [
            "from monodyn.cli import main",
            "try:",
            f"    code = main({argv!r})",
            "except SystemExit as exc:",
            "    code = exc.code",
        ]
        assert heavy_loaded(lines) == [code, loaded]


class TestParsing:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()

    def test_mutually_exclusive_ffield_modes(self, capsys):
        with pytest.raises(SystemExit):
            main(["ffield", "--q", "2", "--density", "--dmean"])
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--q", "7", "--n", "2"],
            ["graph", "--q", "9", "--n", "2", "--format", "dot"],
            ["sweep", "--r", "2", "--n", "3", "--t", "1000"],
            ["ffield", "--q", "3", "--r", "4", "--density"],
            ["verify", "--scope", "quick", "--seed", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_builds_only_its_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(monodyn.verify, "run_verification", lambda scope, seed: [])
        built = count_parsers(monkeypatch)
        assert main(argv) == 0
        capsys.readouterr()
        assert built == [f"monodyn {argv[0]}"]

    def test_help_builds_the_full_tree(self, capsys, monkeypatch):
        built = count_parsers(monkeypatch)
        with pytest.raises(SystemExit):
            main(["--help"])
        capsys.readouterr()
        assert len(built) == 6


def count_parsers(monkeypatch) -> list:
    """The prog of every argparse.ArgumentParser constructed from now on."""
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


#: Help and usage-error lines with the exit code, stdout and stderr they
#: gave before each command built only its own parser (COLUMNS=80,
#: Python 3.11.7).  `--out` lines write report.json in the working directory.
USAGE_TEXTS = json.loads((Path(__file__).parent / "cli_usage.json").read_text())


class TestUsageText:
    @pytest.mark.parametrize(
        "case", USAGE_TEXTS, ids=[" ".join(c["argv"]) or "(none)" for c in USAGE_TEXTS]
    )
    def test_help_and_usage_errors_unchanged(self, capsys, monkeypatch, tmp_path, case):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["code"], case["out"], case["err"])
