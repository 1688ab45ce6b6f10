"""Cross-validation harness: closed forms against brute-force enumeration.

Each check pits an independent computation route against a formula:
functional-graph decompositions against Moebius counts, Dirichlet
means against direct divisor sums, prime sweeps against their limits.
A check never trusts the code it is checking, so any failure isolates
a real defect.  Two scopes are provided: quick (seconds, suitable for
CI) and full (minutes, the acceptance ranges).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import finite_field, function_field, graph_engine, mean_values, monomial
from .errors import InputRangeError
from .numtheory import divisors, prime_powers_up_to, tau, v_s


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class VerificationSummary:
    scope: str
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


@dataclass(frozen=True)
class SweepOutcome:
    fields: int
    systems: int
    formula_failures: list
    structural_failures: list
    order_failures: list


def structure_sweep(
    q_limit: int, n_max: int, check_orders: bool = True
) -> SweepOutcome:
    """Compare the closed-form cycle profile with brute force on every
    prime power q <= q_limit and every exponent 2 <= n <= n_max.

    Also checks the structural predicates: the full graph is never
    weakly connected, the nonzero part is weakly connected iff
    q* = 1, strongly connected iff q = 2, and the system is all
    fixed points iff r-hat = 1.
    """
    fields = systems = 0
    formula_failures = []
    structural_failures = []
    order_failures = []
    for q, p, s in prime_powers_up_to(q_limit):
        spec = finite_field.make_field(p, s)
        fields += 1
        for n in range(2, n_max + 1):
            systems += 1
            sys_ = graph_engine.monomial_system(spec, n)
            st = graph_engine.build(sys_)
            prof = monomial.profile(q, n)
            if st.p_brute != prof.per_period or st.c_brute != prof.per_length:
                formula_failures.append((q, n, st.p_brute, prof.per_period))
            qs = monomial.q_star(q, n)
            max_len = max(c.length for c in st.cycles)
            preds = (
                not graph_engine.is_connected(st),
                graph_engine.star_connected(st) == (qs == 1),
                graph_engine.star_strongly_connected(st) == (q == 2),
                monomial.is_fixed_point_system(q, n)
                == (prof.r_hat == 1)
                == (max_len == 1),
                st.periodic_total == qs + 1,
            )
            if not all(preds):
                structural_failures.append((q, n, preds))
            if check_orders:
                rep = graph_engine.check_order_characterization(sys_, st)
                if not rep.passed:
                    order_failures.append((q, n, rep.failure))
    return SweepOutcome(
        fields, systems, formula_failures, structural_failures, order_failures
    )


@dataclass(frozen=True)
class DichotomyOutcome:
    systems: int
    total_failures: list
    formula_failures: list


def dichotomy_sweep(
    q_limit: int, n_max: int, draws: int, seed: int
) -> DichotomyOutcome:
    """Random twisted systems a * x**n: the periodic total must stay
    q* + 1, and a nonzero fixed point must exist iff a is an
    (n-1)-th power."""
    systems = 0
    total_failures = []
    formula_failures = []
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
                total_failures.append((q, n, a_index))
            if rep.formula_match is False:
                formula_failures.append((q, n, a_index))
    return DichotomyOutcome(systems, total_failures, formula_failures)


def mean_identity_failures(r_max: int, s_max: int, n_max: int) -> list:
    """dirichlet_D must equal analytic_N wherever both are defined."""
    bad = []
    for n in range(2, n_max + 1):
        for s in range(1, s_max + 1):
            for r in range(1, r_max + 1):
                a = mean_values.analytic_N(r, s, n)
                d = mean_values.dirichlet_D(r, s, n)
                if a != d:
                    bad.append((r, s, n, a, d))
    return bad


def tau_identity_failures(m_max: int) -> list:
    """For s = 1 the gcd mean collapses to the divisor count.

    The direct route is checked on the full range; the slower
    density route on the first 300 values.
    """
    bad = [
        m
        for m in range(1, m_max + 1)
        if mean_values.analytic_I(m, 1) != tau(m)
    ]
    bad += [
        m
        for m in range(1, min(m_max, 300) + 1)
        if mean_values.density_mean_gcd(m, 1) != tau(m)
    ]
    return bad


def v_s_failures(l_max: int, s_max: int) -> list:
    """Check v_s(l) against a direct count of s-th roots of unity mod l."""
    bad = []
    for l in range(1, l_max + 1):
        xs = np.arange(l, dtype=np.int64)
        units = xs[np.gcd(xs, l) == 1] if l > 1 else np.array([0])
        y = np.ones_like(units)
        for s in range(1, s_max + 1):
            y = y * units % l
            count = int(np.count_nonzero(y == 1 % l))
            if count != v_s(s, l):
                bad.append((s, l, count, v_s(s, l)))
    return bad


#: Convergence test points: limits exist but are only approached, so the
#: check is tolerance plus strict improvement.  (1, 2, 2) is degenerate
#: (the count is identically 2), where improvement means staying at zero.
CONVERGENCE_TUPLES = ((1, 1, 3), (1, 1, 5), (2, 1, 2), (1, 2, 2))


def convergence_failures(t_small: int, t_big: int, workers: int = 1) -> list:
    """Prime-sweep means must approach their limits as the bound grows."""
    bad = []
    for r, s, n in CONVERGENCE_TUPLES:
        rep = mean_values.empirical_mean(
            r, s, n, t_big, checkpoints=[t_small, t_big], workers=workers
        )
        err_small = abs(rep.checkpoints[0].mean - rep.analytic)
        err_big = rep.final_abs_error
        close = err_big <= Fraction(1, 50)
        shrinking = err_big < err_small or err_big == 0 == err_small
        if not (close and shrinking):
            bad.append((r, s, n, err_small, err_big))
    rep = mean_values.empirical_mean(1, 1, 2, t_big, workers=workers)
    if any(cp.mean != 2 for cp in rep.checkpoints):
        bad.append((1, 1, 2, "mean not identically 2"))
    return bad


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
        for big_d in range(1, 21):
            total = sum(
                d * function_field.irreducible_count(q, d)
                for d in divisors(big_d)
            )
            _require(total == q**big_d, (q, big_d))
    _require(function_field.dirichlet_D_K(3, 2, 2) == 0, "D_K(3, 2, 2)")
    _require(function_field.irreducible_count(2, 4) == 3, "quartics over GF(2)")
    _require(function_field.pi_K(2, 3) == 5, "pi_K(2, 3)")


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


def run_verification(
    scope: str, seed: int = 0, threads: int = 1
) -> VerificationSummary:
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

    results = []

    def record(name: str, fn) -> None:
        t0 = time.perf_counter()
        try:
            detail = fn()
            ok = True
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append(
            CheckResult(name, ok, detail or "", time.perf_counter() - t0)
        )

    def structure() -> str:
        out = structure_sweep(q_limit, n_max)
        bad = out.formula_failures + out.structural_failures + out.order_failures
        if bad:
            raise AssertionError(f"{len(bad)} failures, first: {bad[0]}")
        return f"{out.systems} systems over {out.fields} fields"

    def dichotomy() -> str:
        out = dichotomy_sweep(q_limit, n_max, draws, seed)
        bad = out.total_failures + out.formula_failures
        if bad:
            raise AssertionError(f"{len(bad)} failures, first: {bad[0]}")
        return f"{out.systems} random twisted systems"

    def identities() -> str:
        bad = mean_identity_failures(*id_rsn)
        bad += [("tau", m) for m in tau_identity_failures(tau_max)]
        bad += v_s_failures(*vs_lim)
        if bad:
            raise AssertionError(f"{len(bad)} failures, first: {bad[0]}")
        return "analytic = Dirichlet on all tested (r, s, n)"

    def convergence() -> str:
        bad = convergence_failures(t_small, t_big, workers=threads)
        if bad:
            raise AssertionError(f"{len(bad)} failures, first: {bad[0]}")
        return f"means within 1/50 of limits at t = {t_big}"

    record("structure_sweep", structure)
    record("dichotomy_sweep", dichotomy)
    record("mean_identities", identities)
    record("sweep_convergence", convergence)
    record("golden_profiles", lambda: (_check_profiles(), "")[1])
    record("ff_oscillation", lambda: (_check_oscillation(), "")[1])
    record("ff_dirichlet_means", lambda: (_check_ff_means(), "")[1])
    record("divergence", lambda: (_check_divergence(), "")[1])
    return VerificationSummary(scope, seed, tuple(results))
