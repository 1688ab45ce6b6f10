"""Acceptance gate: every release criterion as one pass/fail test.

Run with -v to get one line per criterion.  The heavy sweeps are
session fixtures shared between the criteria that reuse them; their
wall-clock budgets are asserted where a criterion pins one.
"""

import time

import pytest

from monodyn import graph_engine, mean_values, monomial, verify
from monodyn.finite_field import make_field
from monodyn.numtheory import tau


SEED = 0


def best_of(fn, repeats: int = 200) -> float:
    fn()  # warm caches; the budget is steady-state
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="session")
def structure_outcome():
    t0 = time.perf_counter()
    outcome = verify.structure_sweep(3000, 16, check_orders=True)
    return outcome, time.perf_counter() - t0


@pytest.fixture(scope="session")
def twisted_outcome():
    return verify.dichotomy_sweep(3000, 16, draws=20, seed=SEED)


def test_criterion_01_smallest_worked_example():
    prof = monomial.profile(7, 2)
    assert prof.per_period == {1: 2, 2: 2}
    assert prof.per_length == {1: 2, 2: 1}
    assert prof.r_hat == 2
    assert prof.total_periodic == 4
    assert prof.total_cycles == 3

    st = graph_engine.build(graph_engine.monomial_system(make_field(7), 2))
    assert st.p_brute == prof.per_period
    assert st.c_brute == prof.per_length
    assert st.component_count == prof.total_cycles
    assert st.periodic_total == prof.total_periodic

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


def test_criterion_03_profile_sweep(structure_outcome):
    outcome, secs = structure_outcome
    assert outcome.fields >= 430
    assert outcome.systems == outcome.fields * 15
    assert outcome.formula_failures == []
    assert secs < 300, f"sweep took {secs:.1f}s"
    print(
        f"criterion 3: {outcome.systems} systems over {outcome.fields} fields "
        f"match the closed forms in {secs:.1f}s"
    )


def test_criterion_04_twisted_coefficients(twisted_outcome):
    outcome = twisted_outcome
    assert outcome.total_failures == []
    assert outcome.formula_failures == []

    # worked twisted examples, checked point by point
    st = graph_engine.build(graph_engine.monomial_system(make_field(5), 3, 3))
    assert st.p_brute == {1: 1, 2: 4}
    sys53 = graph_engine.monomial_system(make_field(5), 3, 3)
    assert not graph_engine.has_nonzero_fixed(sys53)

    sys33 = graph_engine.monomial_system(make_field(3), 3, 2)
    st33 = graph_engine.build(sys33)
    assert graph_engine.star_strongly_connected(st33)
    assert st33.p_brute == {1: 1, 2: 2}
    print(
        f"criterion 4: {outcome.systems} random twisted systems keep the "
        f"periodic total, and the worked examples check out"
    )


def test_criterion_05_structural_predicates(structure_outcome):
    outcome, _ = structure_outcome
    assert outcome.structural_failures == []
    assert outcome.order_failures == []
    print(
        f"criterion 5: connectivity, fixed-point, and order predicates hold "
        f"on all {outcome.systems} systems"
    )


def test_criterion_06_mean_value_identities():
    assert verify.mean_identity_failures(6, 4, 10) == []
    for m in range(1, 10**4 + 1):
        assert mean_values.analytic_I(m, 1) == tau(m)
    assert verify.v_s_failures(5000, 12) == []
    print("criterion 6: Dirichlet and divisor-sum mean routes agree")


def test_criterion_07_empirical_convergence():
    t0 = time.perf_counter()
    failures = verify.convergence_failures(10**3, 10**6, workers=4)
    secs = time.perf_counter() - t0
    assert failures == []
    assert secs < 120, f"sweeps took {secs:.1f}s"
    print(f"criterion 7: prime sweeps to 10^6 settle on the limits in {secs:.1f}s")


def test_criterion_08_density_oscillation():
    # exact limit pairs, per-point int/Fraction types, both tags within
    # 1e-4 of their limits, a tail swing over 1/5, density 1 / ord_r(q)
    t0 = time.perf_counter()
    verify._check_oscillation()
    secs = time.perf_counter() - t0
    assert secs < 1, f"oscillation runs took {secs:.2f}s"
    print(f"criterion 8: both subsequences within 1e-4 of their limits, {secs:.2f}s")


def test_criterion_09_function_field_means():
    # D_K(q, 2, 1) = 2 and the necklace identity for q <= 9, D <= 20,
    # and the fixed-point mean goldens
    verify._check_ff_means()
    print("criterion 9: function-field fixed-point means and necklace sums hold")


def test_criterion_10_divergence():
    # both partial-sum series are monotone, the prime-field one strictly
    # growing at every prime r <= 31, the F_3(T) one by more than 5
    verify._check_divergence()
    print("criterion 10: both mean series keep growing through r = 31")
