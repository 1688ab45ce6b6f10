"""Running one op against the program and checking what it produced.

Only the call into the program is timed.  Digests, file removal and the
comparison with the recorded outcome happen after the timer stops.
Program modules are looked up as module attributes at call time, so the
tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pkgutil
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import monodyn
from monodyn import cli, finite_field, graph_engine, mean_values, monomial

from inputs import GATE_DRAWS, GATE_N_MAX, Op


def discover_caches() -> dict:
    """Every cache_clear-able callable of the monodyn modules, by name.

    A fresh CLI process starts with all of them empty, so clearing them
    before each op gives the op the caches a command would see.
    """
    found = {}
    for info in pkgutil.iter_modules(monodyn.__path__):
        if info.name == "__main__":  # importing it would run the CLI
            continue
        mod = importlib.import_module(f"{monodyn.__name__}.{info.name}")
        scopes = [vars(mod)] + [
            vars(c) for c in vars(mod).values()
            if isinstance(c, type) and c.__module__ == mod.__name__
        ]
        for scope in scopes:
            for obj in scope.values():
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def reset_caches(caches: dict) -> None:
    for fn in caches.values():
        fn.cache_clear()


@dataclass
class Outcome:
    seconds: float
    digest: str | None = None  # sha256 of the report or of the gate rows
    value: int | None = None  # sweep total or identity value
    size: int = 0  # bytes written by a command
    problem: str | None = None  # a check the program's output failed


def _gate_body(q: int, p: int, s: int, draw: int) -> tuple[list, list]:
    """The structure_sweep body for one field, then its seeded twisted draws."""
    rows, bad = [], []
    spec = finite_field.make_field(p, s)
    for n in range(2, GATE_N_MAX + 1):
        sys_ = graph_engine.monomial_system(spec, n)
        st = graph_engine.build(sys_)
        prof = monomial.profile(q, n)
        if st.p_brute != prof.per_period or st.c_brute != prof.per_length:
            bad.append(("formula", n))
        qs = monomial.q_star(q, n)
        max_len = max(c.length for c in st.cycles)
        preds = (
            not graph_engine.is_connected(st),
            graph_engine.star_connected(st) == (qs == 1),
            graph_engine.star_strongly_connected(st) == (q == 2),
            monomial.is_fixed_point_system(q, n) == (prof.r_hat == 1) == (max_len == 1),
            st.periodic_total == qs + 1,
        )
        if not all(preds):
            bad.append(("predicates", n, preds))
        rep = graph_engine.check_order_characterization(sys_, st)
        if not rep.passed:
            bad.append(("orders", n, rep.failure))
        rows.append([n, st.p_brute, st.c_brute, st.component_count, rep.passed])
    rng = random.Random(draw * 1_000_003 + q)
    for _ in range(GATE_DRAWS):
        n = rng.randrange(2, GATE_N_MAX + 1)
        a_index = rng.randrange(1, q)
        sys_ = graph_engine.monomial_system(spec, n, a_index)
        st = graph_engine.build(sys_)
        rep = graph_engine.dichotomy_report(sys_, st, strict=False)
        if not rep.totals_match or rep.formula_match is False:
            bad.append(("dichotomy", n, a_index))
        rows.append([n, a_index, rep.has_nonzero_fixed, rep.periodic_total, rep.formula_match])
    return rows, bad


def _sweep_total(text: str) -> int:
    """Exact prime-sweep total at the last checkpoint of a sweep CSV."""
    t, pi_t, num, den = text.strip().splitlines()[-1].split(",")[:4]
    total = Fraction(int(num), int(den)) * int(pi_t)
    if total.denominator != 1:
        raise ValueError(f"sweep mean times pi(t) is not an integer: {total}")
    return int(total)


def run(op: Op, out_path: Path) -> Outcome:
    """Time one op; the caller resets caches and collects garbage first."""
    if op.kind == "gate":
        t0 = time.perf_counter()
        rows, bad = _gate_body(*op.args)
        out = Outcome(time.perf_counter() - t0)
        blob = json.dumps(rows, sort_keys=True).encode()
        out.digest = hashlib.sha256(blob).hexdigest()
        if bad:
            out.problem = f"{len(bad)} failed checks, first {bad[0]}"
        return out
    if op.kind == "identity":
        r, s, n = op.args
        t0 = time.perf_counter()
        a = mean_values.analytic_N(r, s, n)
        d = mean_values.dirichlet_D(r, s, n)
        out = Outcome(time.perf_counter() - t0, value=a)
        if a != d:
            out.problem = f"analytic_N {a} != dirichlet_D {d}"
        return out
    argv = [str(a) for a in op.args] + ["--output", str(out_path)]
    t0 = time.perf_counter()
    code = cli.main(argv)
    out = Outcome(time.perf_counter() - t0)
    if code != 0:
        out.problem = f"exit code {code}"
    if out_path.exists():
        data = out_path.read_bytes()
        os.remove(out_path)
        out.size = len(data)
        out.digest = hashlib.sha256(data).hexdigest()
        if op.args[0] == "sweep":
            out.value = _sweep_total(data.decode())
    elif out.problem is None:
        out.problem = "no report written"
    return out


def check(op: Op, out: Outcome, expected: dict) -> str | None:
    """None when the outcome matches the record, else what went wrong."""
    if out.problem:
        return out.problem
    want = expected.get(op.key)
    if want is None:
        return "no recorded outcome for this op"
    if "sha256" in want and out.digest != want["sha256"]:
        return f"digest {out.digest} != recorded {want['sha256']}"
    if "value" in want and out.value != want["value"]:
        return f"value {out.value} != recorded {want['value']}"
    return None
