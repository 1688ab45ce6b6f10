"""Cross-validation harness: closed forms against brute-force enumeration.

Each check pits an independent computation route against a formula:
functional-graph decompositions against Moebius counts, Dirichlet
means against direct divisor sums, prime sweeps against their limits.
A check never trusts the code it is checking, so any failure isolates
a real defect.  Two scopes are provided: quick (a second or two,
suitable for CI) and full (the acceptance ranges, about 8-14 s on a
shared two-core host).  The battery runs in one process.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import finite_field, function_field, graph_engine, mean_values, monomial
from .errors import InputRangeError, InvariantViolation
from .numtheory import divisors, prime_powers_up_to, tau, v_s


@dataclass(frozen=True)
class CheckResult:
    """One check of the battery.

    failures: what failed, in the order found; empty iff the check passed.
    counts: what the check covered, e.g. {"fields": 466, "systems": 6990}.
    detail: the text `monodyn verify` prints after the verdict.
    seconds: wall time of the check.
    """

    name: str
    failures: tuple
    counts: dict
    detail: str
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures


def structure_sweep(q_limit: int, n_max: int) -> tuple[list, dict]:
    """Judge x -> x**n for every prime power q <= q_limit and exponent
    2 <= n <= n_max by `graph_engine.dichotomy_report`, and check the
    element-order characterization of periodic points.  Failures are
    tagged "formula" (the census, with both censuses), "structure" (the
    totals or the graph criteria, with the report) or "orders"; counts
    are the fields and systems swept.
    """
    fields = systems = 0
    failures = []
    for q, p, s in prime_powers_up_to(q_limit):
        spec = finite_field.make_field(p, s)
        fields += 1
        for n in range(2, n_max + 1):
            systems += 1
            sys_ = graph_engine.monomial_system(spec, n)
            st = graph_engine.build(sys_)
            verdict = graph_engine.dichotomy_report(sys_, st, strict=False)
            if not verdict.formula_match:
                prof = monomial.profile(q, n)
                failures.append(("formula", q, n, st.p_brute, prof.per_period))
            if not (verdict.totals_match and verdict.criteria_match):
                failures.append(("structure", q, n, verdict))
            rep = graph_engine.check_order_characterization(sys_, st)
            if not rep.passed:
                failures.append(("orders", q, n, rep.failure))
    return failures, {"fields": fields, "systems": systems}


def dichotomy_sweep(
    q_limit: int, n_max: int, draws: int, seed: int
) -> tuple[list, dict]:
    """Random twisted systems a * x**n, judged by `dichotomy_report`:
    the periodic total must stay q* + 1 (failures tagged "total"), and
    on the power side the closed forms of x**n, census and graph
    criteria, must carry over (tagged "formula")."""
    systems = 0
    failures = []
    for q, p, s in prime_powers_up_to(q_limit):
        spec = finite_field.make_field(p, s)
        rng = random.Random(seed * 1_000_003 + q)
        for _ in range(draws):
            n = rng.randrange(2, n_max + 1)
            a_index = rng.randrange(1, q)
            systems += 1
            sys_ = graph_engine.monomial_system(spec, n, a_index)
            st = graph_engine.build(sys_)
            rep = graph_engine.dichotomy_report(sys_, st, strict=False)
            if not rep.totals_match:
                failures.append(("total", q, n, a_index))
            if False in (rep.formula_match, rep.criteria_match):
                failures.append(("formula", q, n, a_index))
    return failures, {"systems": systems}


def mean_identities(
    rsn: tuple[int, int, int], m_max: int, ls: tuple[int, int]
) -> tuple[list, dict]:
    """The mean-value identities, each route against an independent one:

    - dirichlet_D = analytic_N on every (r, s, n) up to rsn;
    - for s = 1 the gcd mean collapses to the divisor count: analytic_I
      on m <= m_max, the slower density route on m <= 300 (tagged "tau");
    - v_s(l) against a direct count of s-th roots of unity mod l, on
      (l, s) up to ls.

    Counts are the (r, s, n) triples, m_max and the (l, s) pairs.
    """
    failures = []
    r_max, s_max, n_max = rsn
    for n in range(2, n_max + 1):
        for s in range(1, s_max + 1):
            for r in range(1, r_max + 1):
                a = mean_values.analytic_N(r, s, n)
                d = mean_values.dirichlet_D(r, s, n)
                if a != d:
                    failures.append((r, s, n, a, d))
    for m in range(1, m_max + 1):
        if mean_values.analytic_I(m, 1) != tau(m):
            failures.append(("tau", m))
    for m in range(1, min(m_max, 300) + 1):
        if sum(g * P for g, P in mean_values.class_law(m, 1).items()) != tau(m):
            failures.append(("tau", m))
    l_max, vs_max = ls
    for l in range(1, l_max + 1):
        xs = np.arange(l, dtype=np.int64)
        units = xs[np.gcd(xs, l) == 1] if l > 1 else np.array([0])
        y = np.ones_like(units)
        for s in range(1, vs_max + 1):
            y *= units
            y -= y // l * l  # y mod l by floor division, as in finite_field.mul
            count = int(np.count_nonzero(y == 1 % l))
            if count != v_s(s, l):
                failures.append((s, l, count, v_s(s, l)))
    triples = r_max * s_max * (n_max - 1)
    return failures, {"rsn": triples, "tau_m": m_max, "v_s_ls": l_max * vs_max}


#: Convergence test points: limits exist but are only approached, so the
#: check is tolerance plus strict improvement.  (1, 2, 2) is degenerate
#: (the count is identically 2), where improvement means staying at zero.
CONVERGENCE_TUPLES = ((1, 1, 3), (1, 1, 5), (2, 1, 2), (1, 2, 2))


def sweep_convergence(t_small: int, t_big: int) -> tuple[list, dict]:
    """Prime-sweep means must approach their limits as the bound grows.
    Counts hold the bound t."""
    bad = []
    for r, s, n in CONVERGENCE_TUPLES:
        rep = mean_values.empirical_mean(r, s, n, t_big, checkpoints=[t_small, t_big])
        err_small = abs(rep.checkpoints[0].mean - rep.analytic)
        err_big = rep.final_abs_error
        close = err_big <= Fraction(1, 50)
        shrinking = err_big < err_small or err_big == 0 == err_small
        if not (close and shrinking):
            bad.append((r, s, n, err_small, err_big))
    rep = mean_values.empirical_mean(1, 1, 2, t_big)
    if any(cp.mean != 2 for cp in rep.checkpoints):
        bad.append((1, 1, 2, "mean not identically 2"))
    return bad, {"t": t_big}


def _require(ok: bool, detail) -> None:
    """Fail a check with detail; unlike assert, this survives python -O."""
    if not ok:
        raise AssertionError(detail)


def _check_profiles() -> None:
    prof = monomial.profile(7, 2)
    _require(prof.per_period == {1: 2, 2: 2}, prof)
    _require(prof.per_length == {1: 2, 2: 1}, prof)
    prof = monomial.profile(19, 2)
    _require(prof.per_period == {1: 2, 2: 2, 6: 6}, prof)
    _require(monomial.periodic_count(19, 2, 3) == 0, "period 3 on GF(19)")


#: (q, r, degree bound, exact subsequence limits) for the oscillation
#: pairs; the subsequence errors decay like 1/t, so these bounds put
#: both tags under 1 / 10**4.
OSCILLATION_RUNS = (
    (2, 3, 3000, (Fraction(2, 3), Fraction(1, 3))),
    (3, 5, 4000, (Fraction(27, 40), Fraction(1, 40))),
)


def _check_oscillation() -> None:
    for q, r, t_max, limits in OSCILLATION_RUNS:
        rep = function_field.oscillation_experiment(q, r, t_max)
        _require((rep.limit_A, rep.limit_B) == limits, (q, r, limits))
        for tag, limit in (("A", rep.limit_A), ("B", rep.limit_B)):
            last = [pt for pt in rep.series if tag in pt.tag][-1]
            err = abs(last.ratio - limit)
            _require(err < Fraction(1, 10_000), (q, r, tag, err))
        tail = [pt.ratio for pt in rep.series[-rep.l_r :]]
        _require(max(tail) - min(tail) > Fraction(1, 5), (q, r, tail))
        for pt in rep.series:
            types = type(pt.pi_K), type(pt.c_r), type(pt.ratio)
            _require(types == (int, int, Fraction), (q, r, pt))
        dens = function_field.dirichlet_density_S(q, r)
        _require(dens == Fraction(1, rep.l_r), (q, r, dens))


def _check_ff_means() -> None:
    _require(function_field.dirichlet_mean_solutions(2, 3) == 2, "x**3 = 1 over F_2(T)")
    _require(function_field.dirichlet_mean_solutions(3, 8) == 5, "x**8 = 1 over F_3(T)")
    for q in (2, 3, 4, 5, 7, 8, 9):
        _require(function_field.dirichlet_D_K(q, 2, 1) == 2, q)
        counts = function_field.irreducible_counts(q, 20)
        for big_d in range(1, 21):
            total = sum(d * counts[d - 1] for d in divisors(big_d))
            _require(total == q**big_d, (q, big_d))
    _require(function_field.dirichlet_D_K(3, 2, 2) == 0, "D_K(3, 2, 2)")
    counts = function_field.irreducible_counts(2, 4)
    _require(counts[-1] == 3, "quartics over GF(2)")
    _require(sum(counts[:3]) == 5, "pi_K(2, 3)")


def _check_divergence() -> None:
    d = mean_values.divergence_series(lambda r: mean_values.analytic_N(r, 1, 2), 2, 31)
    _require(all(b >= a for a, b in zip(d.point_sums, d.point_sums[1:])), "N sums")
    for r in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        _require(d.point_sums[r - 1] > d.point_sums[r - 2], r)
    _require(d.cycle_sums[-1] > d.cycle_sums[0], d.cycle_sums)
    k = mean_values.divergence_series(
        lambda r: function_field.dirichlet_D_K(3, 2, r), 2, 31
    )
    _require(all(b >= a for a, b in zip(k.point_sums, k.point_sums[1:])), "D_K sums")
    _require(k.point_sums[-1] > k.point_sums[0] + 5, k.point_sums[-1])


#: What `monodyn verify` prints after a pass, filled in from the counts.
PASS_DETAIL = {
    "structure_sweep": "{systems} systems over {fields} fields",
    "dichotomy_sweep": "{systems} random twisted systems",
    "mean_identities": "analytic = Dirichlet on all tested (r, s, n)",
    "sweep_convergence": "means within 1/50 of limits at t = {t}",
}


def run_verification(scope: str, seed: int = 0) -> tuple[CheckResult, ...]:
    """Run every check of the battery at one scope.  A check fails by
    returning failures or by raising AssertionError or InvariantViolation;
    any other exception is a defect, not a verdict, and propagates."""
    if scope == "quick":
        q_limit, n_max, draws = 300, 8, 5
        t_small, t_big = 2_000, 20_000
        id_rsn, tau_max, vs_lim = (6, 3, 6), 200, (120, 4)
    elif scope == "full":
        q_limit, n_max, draws = 3000, 16, 20
        t_small, t_big = 1_000, 1_000_000
        id_rsn, tau_max, vs_lim = (6, 4, 10), 10_000, (5000, 12)
    else:
        raise InputRangeError(f"scope must be 'quick' or 'full', got {scope!r}")

    # a check returns (failures, counts), except the golden checks,
    # which raise on failure and return nothing
    checks = (
        ("structure_sweep", lambda: structure_sweep(q_limit, n_max)),
        ("dichotomy_sweep", lambda: dichotomy_sweep(q_limit, n_max, draws, seed)),
        ("mean_identities", lambda: mean_identities(id_rsn, tau_max, vs_lim)),
        ("sweep_convergence", lambda: sweep_convergence(t_small, t_big)),
        ("golden_profiles", _check_profiles),
        ("ff_oscillation", _check_oscillation),
        ("ff_dirichlet_means", _check_ff_means),
        ("divergence", _check_divergence),
    )
    results = []
    for name, check in checks:
        t0 = time.perf_counter()
        try:
            failures, counts = check() or ((), {})
        except (AssertionError, InvariantViolation) as exc:
            failures, counts = (f"{type(exc).__name__}: {exc}",), {}
        seconds = time.perf_counter() - t0
        if failures:
            detail = f"{len(failures)} failures, first: {failures[0]}"
        else:
            detail = PASS_DETAIL.get(name, "").format(**counts)
        results.append(CheckResult(name, tuple(failures), counts, detail, seconds))
    return tuple(results)
