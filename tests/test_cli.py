import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import monodyn.cli
import monodyn.mean_values
import monodyn.monomial
from monodyn.cli import main


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

    def test_composite_q_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--q", "12", "--n", "2")
        assert code == 2
        assert "prime power" in err

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


    def test_zero_threads_rejected(self, capsys, monkeypatch):
        # an explicit 0 is refused, not replaced by the environment value
        monkeypatch.setenv("MONODYN_THREADS", "1")
        code, out, err = run(
            capsys, "sweep", "--r", "1", "--n", "2", "--t", "100", "--threads", "0"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "0" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_threads_environment_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MONODYN_THREADS", value)
        for argv in (
            ("sweep", "--r", "1", "--n", "2", "--t", "100"),
            ("verify", "--scope", "quick"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", (argv, value)
            assert err.startswith("error:") and "MONODYN_THREADS" in err

    @pytest.mark.parametrize("where", ["flag", "environment"])
    def test_threads_over_cap_rejected(self, capsys, monkeypatch, where):
        # refused before any work: a pool, had one been asked for, raises
        def no_pool(**kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(monodyn.mean_values, "ProcessPoolExecutor", no_pool)
        too_many = str(monodyn.mean_values.MAX_WORKERS + 1)
        for argv in (
            ("sweep", "--r", "1", "--n", "2", "--t", "100"),
            ("verify", "--scope", "quick"),
        ):
            if where == "flag":
                argv += ("--threads", too_many)
            else:
                monkeypatch.setenv("MONODYN_THREADS", too_many)
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
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

    def test_threads_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MONODYN_THREADS", "abc")
        code, _, _ = run(
            capsys, "sweep", "--r", "1", "--n", "2", "--t", "100", "--threads", "1"
        )
        assert code == 0


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


class TestVerify:
    def test_quick_scope_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "quick", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].startswith("OK:")
        assert "seed=7" in lines[-1]

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


class TestParsing:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()

    def test_mutually_exclusive_ffield_modes(self, capsys):
        with pytest.raises(SystemExit):
            main(["ffield", "--q", "2", "--density", "--dmean"])
        capsys.readouterr()
