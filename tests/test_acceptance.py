"""Acceptance gate: every release criterion as one pass/fail test.

Run with -v to get one line per criterion.  Criteria 3-10 assert on one
run of `monodyn verify --scope full`, time budgets included;
criteria 1, 2 and 4 add worked examples of their own.
"""

import time

import pytest

from monodyn import graph_engine, monomial, verify
from monodyn.finite_field import make_field


def best_of(fn, repeats: int = 200) -> float:
    fn()  # warm caches; the budget is steady-state
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="session")
def battery():
    return {r.name: r for r in verify.run_verification("full", seed=0)}


def tagged(result, tag: str) -> list:
    """A sweep's failures with one tag; a sweep that raised has no counts."""
    assert result.counts, result.detail
    return [f for f in result.failures if f[0] == tag]


def test_criterion_01_smallest_worked_example():
    prof = monomial.profile(7, 2)
    assert prof.per_period == {1: 2, 2: 2}
    assert prof.per_length == {1: 2, 2: 1}
    assert prof.r_hat == 2
    assert sum(prof.per_period.values()) == 4
    assert sum(prof.per_length.values()) == 3

    st = graph_engine.build(graph_engine.monomial_system(make_field(7), 2))
    assert st.p_brute == prof.per_period
    assert st.c_brute == prof.per_length
    assert st.component_count == sum(prof.per_length.values())
    assert st.periodic_total == sum(prof.per_period.values())

    secs = best_of(lambda: monomial.profile(7, 2))
    assert secs < 0.001, f"formula route took {secs * 1000:.3f}ms"
    print(f"criterion 1: formula and graph agree on GF(7), {secs * 1e6:.0f}us")


def test_criterion_02_vanishing_period_two():
    assert monomial.periodic_count(5, 2, 2) == 0
    st = graph_engine.build(graph_engine.monomial_system(make_field(5), 2))
    assert 2 not in st.p_brute

    secs = best_of(lambda: monomial.periodic_count(5, 2, 2))
    assert secs < 0.001, f"formula route took {secs * 1000:.3f}ms"
    print(f"criterion 2: no 2-cycles in GF(5) under squaring, {secs * 1e6:.0f}us")


def test_criterion_03_profile_sweep(battery):
    sweep = battery["structure_sweep"]
    assert tagged(sweep, "formula") == []
    fields, systems = sweep.counts["fields"], sweep.counts["systems"]
    assert fields >= 430
    assert systems == fields * 15
    assert sweep.seconds < 300, f"sweep took {sweep.seconds:.1f}s"
    print(
        f"criterion 3: {systems} systems over {fields} fields "
        f"match the closed forms in {sweep.seconds:.1f}s"
    )


def test_criterion_04_twisted_coefficients(battery):
    # random twisted systems: no "total" and no "formula" failure
    twisted = battery["dichotomy_sweep"]
    assert twisted.failures == ()

    # worked twisted examples, checked point by point
    st = graph_engine.build(graph_engine.monomial_system(make_field(5), 3, 3))
    assert st.p_brute == {1: 1, 2: 4}
    # 3 * x**2 = 1 has no solution in GF(5): 3 is not a square
    assert not graph_engine.is_mth_power(make_field(5), 3, 2)

    sys33 = graph_engine.monomial_system(make_field(3), 3, 2)
    st33 = graph_engine.build(sys33)
    assert graph_engine.star_strongly_connected(st33)
    assert st33.p_brute == {1: 1, 2: 2}
    print(
        f"criterion 4: {twisted.counts['systems']} random twisted systems keep "
        f"the periodic total, and the worked examples check out"
    )


def test_criterion_05_structural_predicates(battery):
    sweep = battery["structure_sweep"]
    assert tagged(sweep, "structure") == []
    assert tagged(sweep, "orders") == []
    print(
        f"criterion 5: connectivity, fixed-point, and order predicates hold "
        f"on all {sweep.counts['systems']} systems"
    )


def test_criterion_06_mean_value_identities(battery):
    # analytic_N = dirichlet_D on (r, s, n) <= (6, 4, 10), analytic_I(m, 1)
    # = tau(m) for m <= 10^4, v_s(l) against a root count on l <= 5000
    identities = battery["mean_identities"]
    assert identities.failures == ()
    covered = identities.counts
    assert covered["rsn"] >= 6 * 4 * 9 and covered["tau_m"] >= 10**4
    assert covered["v_s_ls"] >= 5000 * 12
    print("criterion 6: Dirichlet and divisor-sum mean routes agree")


def test_criterion_07_empirical_convergence(battery):
    sweeps = battery["sweep_convergence"]
    assert sweeps.failures == ()
    assert sweeps.counts["t"] >= 10**6
    assert sweeps.seconds < 120, f"sweeps took {sweeps.seconds:.1f}s"
    print(f"criterion 7: prime sweeps to 10^6 settle on the limits in {sweeps.seconds:.1f}s")


def test_criterion_08_density_oscillation(battery):
    # exact limit pairs, per-point int/Fraction types, both tags within
    # 1e-4 of their limits, a tail swing over 1/5, density 1 / ord_r(q)
    runs = battery["ff_oscillation"]
    assert runs.failures == ()
    assert runs.seconds < 1, f"oscillation runs took {runs.seconds:.2f}s"
    print(f"criterion 8: both subsequences within 1e-4 of their limits, {runs.seconds:.2f}s")


def test_criterion_09_function_field_means(battery):
    # D_K(q, 2, 1) = 2 and the necklace identity for q <= 9, D <= 20,
    # and the fixed-point mean goldens
    assert battery["ff_dirichlet_means"].failures == ()
    print("criterion 9: function-field fixed-point means and necklace sums hold")


def test_criterion_10_divergence(battery):
    # both partial-sum series are monotone, the prime-field one strictly
    # growing at every prime r <= 31, the F_3(T) one by more than 5
    assert battery["divergence"].failures == ()
    print("criterion 10: both mean series keep growing through r = 31")
