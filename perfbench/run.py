#!/usr/bin/env python3
"""Benchmark of monodyn: four command-shaped workloads over seeded inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gate --seed 1 --seconds 28 --trace 0

A run builds its op list from the seed and executes rounds until
--seconds have passed (at least three).  Every second, between ops, a
fresh interpreter times its own import of monodyn.cli; setup_s is the
fastest of these imports.  Each round runs
every op once, in the same order, with every monodyn cache cleared and
garbage collected before the op, outside the timer.  Each op's output is
checked against the outcome recorded in expected.json.  pass_s sums each
op's fastest time over the rounds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (pass_s, setup_s, peak_rss_mb); with --trace 1 they
are the per-layer ones, taken from traced rounds that alternate with
untraced ones, plus the tracing overhead.  Lines before it are detail.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: One process runs at a time on this two-core class of machine.
os.environ["MONODYN_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

MIN_ROUNDS = 3
#: A setup sample is taken before the first op and then between ops once
#: this many seconds have passed since the last one, so the samples span
#: the same time window as the timed ops instead of one burst.
SETUP_INTERVAL = 1.0
#: Run by a fresh interpreter: prints how long importing monodyn.cli takes.
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import monodyn.cli; "
                "print(time.perf_counter() - t0)")


def _load_program():
    """Import monodyn from this checkout's src, and from nowhere else."""
    if not (SRC / "monodyn" / "cli.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import monodyn

    if Path(monodyn.__file__).resolve().parent != (SRC / "monodyn").resolve():
        raise SystemExit(f"error: monodyn was imported from {monodyn.__file__}")


class SetupSampler:
    """How long fresh interpreters take to import monodyn.cli."""

    def __init__(self, interval: float):
        self.interval = interval
        self.times = []  # import of monodyn.cli, timed in the child
        self.spawn_times = []  # the whole child, interpreter start-up included
        self.last = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def sample(self) -> None:
        t0 = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=self.env, cwd=ROOT,
                               check=True, capture_output=True, text=True)
        self.last = time.perf_counter()
        self.times.append(float(child.stdout))
        self.spawn_times.append(self.last - t0)

    def maybe_sample(self) -> None:
        if self.last is None or time.perf_counter() - self.last >= self.interval:
            self.sample()


def _percentile_detail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    if len(xs) < 11:
        return {}
    k = len(xs) - 11
    return {f"op_p{100 * (k + 1) // len(xs)}_ms": xs[k] * 1e3}


class Runner:
    """Executes rounds of one op list and keeps every timing and failure."""

    def __init__(self, ops, expected, workdir: Path, before_op=None):
        import ops as op_mod

        self.op_mod = op_mod
        self.ops = ops
        self.expected = expected
        self.workdir = workdir
        self.caches = op_mod.discover_caches()
        self.before_op = before_op
        # op times of untraced ("plain") and traced rounds, one list per op
        self.times = {"plain": [[] for _ in ops], "traced": [[] for _ in ops]}
        self.attempted = 0
        self.failures = []
        self.traced_rounds = []

    def round(self, probe=None, keep="plain") -> None:
        """Run every op once, under a Tracer or AllocPeaks probe if one is given.

        Op times go to self.times[keep]; keep=None drops them, for a
        round whose probe slows the ops.
        """
        import spans

        tr = probe if isinstance(probe, spans.Tracer) else None
        if tr:
            tr.round = len(self.traced_rounds)
        if probe:
            probe.install()
        try:
            for i, op in enumerate(self.ops):
                self._one(i, op, tr, keep)
        finally:
            if probe:
                probe.uninstall()
        if tr:
            self.traced_rounds.append(tr.round)

    def _one(self, i, op, tr, keep) -> None:
        if self.before_op:
            self.before_op()
        self.op_mod.reset_caches(self.caches)
        gc.collect()
        self.attempted += 1
        out_path = self.workdir / f"op{self.attempted}.out"
        try:
            if tr:
                tr.op = i
                with tr.span("op"):
                    out = self.op_mod.run(op, out_path)
                tr.add("cli.output.bytes", out.size)
            else:
                out = self.op_mod.run(op, out_path)
            problem = self.op_mod.check(op, out, self.expected)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            problem = traceback.format_exc(limit=-3)
            out = None
        finally:
            if out_path.exists():
                out_path.unlink()
        if problem:
            self.failures.append((op.key, problem))
        elif keep:
            self.times[keep][i].append(out.seconds)

    def pass_seconds(self, keep="plain", stat=min) -> float:
        """Sum over ops of each op's fastest time (or another statistic).

        Ops that never passed add 0.
        """
        return sum(stat(t) for t in self.times[keep] if t)


def layer_self_excess(runner: Runner, tracer) -> tuple[float, list]:
    """Share of traced op time spent in layers, and the ops where it is too much.

    For each op, the median over traced rounds of the summed self times of
    every layer call in it must not exceed the op's untraced median plus
    its own tracing overhead (its traced median minus its untraced
    median).  Layer calls are disjoint pieces of the op's timed call, so
    this is a consistency assertion: it fails only when spans leak from
    one op into another or a layer's time is counted twice.
    """
    by_op = tracer.layer_self_by_op()
    excess = []
    layer_total = traced_total = 0.0
    for i, op in enumerate(runner.ops):
        plain, traced = runner.times["plain"][i], runner.times["traced"][i]
        if not plain or not traced:
            continue
        layer = statistics.median(by_op[r, i] for r in runner.traced_rounds)
        untraced = statistics.median(plain)
        overhead = statistics.median(traced) - untraced
        budget = untraced + overhead
        layer_total += layer
        traced_total += budget
        if layer > budget * (1 + 1e-9):
            excess.append((op.key, layer, budget))
    return (layer_total / traced_total if traced_total else 0.0), excess


def run_workload(workload, seed, seconds, trace, expected, tiny=False, min_rounds=MIN_ROUNDS):
    """One benchmark run; returns (result object, detail object)."""
    import inputs
    import spans

    ops = inputs.generate(workload, seed, tiny=tiny)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    tracer = spans.Tracer() if trace else None
    setup = SetupSampler(0.0 if tiny else SETUP_INTERVAL)
    runner = Runner(ops, expected, workdir, setup.maybe_sample)
    t_origin = time.perf_counter()
    rounds = 0
    peak_rss = None
    alloc = spans.AllocPeaks() if trace else None
    try:
        while rounds < min_rounds or time.perf_counter() - t_origin < seconds:
            runner.round()
            if peak_rss is None:
                # every op has run once; later rounds only add heap
                # fragmentation, which grows with the number of rounds
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if trace:
                runner.round(tracer, keep="traced")
            rounds += 1
        if trace:
            runner.round(alloc, keep=None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = runner.pass_seconds()
    untraced_median = runner.pass_seconds(stat=statistics.median)
    samples = [t for per_op in runner.times["plain"] for t in per_op]
    failed = len(runner.failures)
    detail = {
        "workload": workload,
        "seed": seed,
        "ops": len(ops),
        "rounds": rounds,
        "samples": len(samples),
        "setup_samples": len(setup.times),
        "setup_median_s": statistics.median(setup.times),
        "setup_spawn_s": statistics.median(setup.spawn_times),
        "pass_median_s": untraced_median,
        "round_s": [sum(r) for r in zip(*runner.times["plain"])] if not failed else None,
        "fail_ratio": failed / runner.attempted,
        "op_p50_ms": statistics.median(samples) * 1e3 if samples else None,
        **_percentile_detail(samples),
        "per_input_median_ms": {
            op.key: statistics.median(t) * 1e3 if t else None
            for op, t in zip(ops, runner.times["plain"])
        },
        "failures": runner.failures[:5],
    }
    correct = failed == 0
    if trace:
        per_round = [tracer.round_metrics(r) for r in runner.traced_rounds]
        layer = spans.median_metrics(per_round)
        layer.update(alloc.peaks)
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
        share, excess = layer_self_excess(runner, tracer)
        metrics["trace.overhead_s"] = {
            "value": runner.pass_seconds("traced") - untraced, "unit": "s"}
        metrics["trace.layer_self_share"] = {"value": share, "unit": "ratio"}
        if excess:
            correct = False
            detail["trace_error"] = f"layer self times exceed the op time: {excess[:3]}"
        trace_file = OUT_DIR / f"trace-{workload}-{seed}.jsonl"
        tracer.write(trace_file, t_origin)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        detail["spans"] = len(tracer.spans)
    else:
        metrics = {
            "pass_s": {"value": untraced, "unit": "s"},
            "setup_s": {"value": min(setup.times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    return result, detail


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    result, detail = run_workload(
        args.workload, args.seed, args.seconds, args.trace, load_expected()
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
