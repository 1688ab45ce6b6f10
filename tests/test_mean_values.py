import concurrent.futures
import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

import monodyn.mean_values
from monodyn.errors import InputRangeError, InvariantViolation, ResourceCapError
from monodyn.mean_values import (
    MAX_WORKERS,
    analytic_I,
    analytic_N,
    class_law,
    default_checkpoints,
    dirichlet_D,
    divergence_series,
    empirical_mean,
)
from monodyn.numtheory import (
    SIEVE_CAP,
    SIEVE_SEGMENT,
    gcd_classes,
    max_exponent,
    prime_segment,
    primes_up_to,
)

from oracles import (
    analytic_C_mean,
    brute_v_s,
    divisor_sum_I,
    naive_divisors,
    naive_factor,
    naive_is_prime,
    naive_primes,
    scalar_sweep_total,
    unit_root_count,
)


class TestAnalyticI:
    def test_goldens(self):
        assert analytic_I(12, 1) == 6
        assert analytic_I(8, 2) == 8
        assert analytic_I(1, 1) == 1
        assert analytic_I(1, 7) == 1

    def test_s_one_is_divisor_count(self):
        for m in range(1, 2000):
            assert analytic_I(m, 1) == len(naive_divisors(m))

    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=6),
    )
    def test_is_divisor_sum_of_unit_power_counts(self, m, s):
        assert analytic_I(m, s) == sum(brute_v_s(s, l) for l in naive_divisors(m))

    def test_unit_root_oracle_is_brute_count(self):
        for l in range(1, 400):
            for s in (1, 2, 3, 4, 6, 12):
                assert unit_root_count(naive_factor(l), s) == brute_v_s(s, l), (l, s)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 6, 12, 2**40])
    def test_prime_power_product_is_divisor_sum(self, s):
        for m in range(1, 3000):
            assert analytic_I(m, s) == divisor_sum_I(naive_factor(m), s), (m, s)
        for m, factors in BIG_MODULI:
            assert analytic_I(m, s) == divisor_sum_I(factors, s), (m, s)


#: Moduli with thousands of divisors or two large prime factors, factored
#: by hand; the test below proves each factorization.
BIG_MODULI = [
    (2**60 - 1, {3: 2, 5: 2, 7: 1, 11: 1, 13: 1, 31: 1, 41: 1, 61: 1, 151: 1, 331: 1, 1321: 1}),
    (3**30 - 1, {2: 3, 7: 1, 11: 2, 13: 1, 31: 1, 61: 1, 271: 1, 4561: 1}),
    (2**62 - 1, {3: 1, 715827883: 1, 2147483647: 1}),
]


def test_big_moduli_factorizations():
    for m, factors in BIG_MODULI:
        assert math.prod(p**e for p, e in factors.items()) == m
        assert all(naive_is_prime(p) for p in factors)


class TestAnalyticN:
    def test_goldens(self):
        assert analytic_N(1, 1, 2) == 2
        assert analytic_N(2, 1, 2) == 1
        assert analytic_N(3, 1, 2) == 1
        assert analytic_N(2, 1, 3) == 2
        for s in range(1, 5):
            assert analytic_N(1, s, 2) == 2

    def test_fixed_point_mean_counts_divisors(self):
        # r = 1: mean is I(n - 1, s) + 1; for s = 1 that is tau(n-1) + 1
        for n in range(2, 40):
            assert analytic_N(1, 1, n) == len(naive_divisors(n - 1)) + 1

    def test_cycle_mean_goldens(self):
        assert analytic_C_mean(3, 1, 2) == Fraction(1, 3)
        assert analytic_C_mean(2, 1, 2) == Fraction(1, 2)
        assert analytic_C_mean(1, 1, 2) == 2

    def test_cycle_mean_is_analytic_N_over_r(self):
        for r in range(1, 5):
            for s in range(1, 4):
                for n in range(2, 5):
                    want = analytic_C_mean(r, s, n)
                    assert Fraction(analytic_N(r, s, n), r) == want, (r, s, n)

    def test_prime_period_means_are_positive(self):
        for r in (2, 3, 5, 7, 11, 13):
            for n in (2, 3, 10):
                for s in (1, 2, 3):
                    assert analytic_N(r, s, n) >= 1, (r, s, n)

    def test_input_errors(self):
        with pytest.raises(InputRangeError):
            analytic_N(0, 1, 2)
        with pytest.raises(InputRangeError):
            analytic_N(1, 0, 2)
        with pytest.raises(InputRangeError):
            analytic_N(1, 1, 1)


#: (r, s, n) whose class law of n**r - 1 is held against the primes up
#: to 10**6: small and large L, s > 1, a prime L (2**5 - 1).
LAW_TUPLES = ((6, 1, 2), (4, 1, 3), (3, 2, 2), (2, 1, 5), (12, 1, 2), (5, 3, 2))


class TestDirichletRoute:
    def test_density_mean_matches_divisor_count(self):
        for m in range(1, 300):
            law = class_law(m, 1)
            assert sum(g * P for g, P in law.items()) == len(naive_divisors(m))

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=5),
    )
    def test_density_mean_matches_divisor_sum_route(self, m, s):
        assert sum(g * P for g, P in class_law(m, s).items()) == analytic_I(m, s)

    def test_class_densities_sum_to_one(self):
        # one class per divisor of L, none negative, all of them summing to 1
        moduli = [12, 36, 100, 7, 1, 4095, *(n**r - 1 for r, _, n in LAW_TUPLES)]
        for L in moduli:
            for s in range(1, 5):
                law = class_law(L, s)
                assert sorted(law) == naive_divisors(L), (L, s)
                assert min(law.values()) >= 0, (L, s)
                assert sum(law.values()) == 1, (L, s)

    def test_class_histogram_matches_law(self):
        # the primes up to 10**6 per gcd class, against the exact law
        primes = prime_segment(0, 10**6 + 1, primes_up_to(1000))
        for r, s, n in LAW_TUPLES:
            L = n**r - 1
            law = class_law(L, s)
            hist = dict(gcd_classes(primes, s, L))
            assert set(hist) <= set(law), (r, s, n)
            tv = sum(abs(Fraction(hist.get(g, 0), len(primes)) - P)
                     for g, P in law.items()) / 2
            assert tv < Fraction(1, 100), (r, s, n, float(tv))

    def test_golden(self):
        assert dirichlet_D(1, 1, 13) == 7

    def test_fractional_mean_is_an_invariant_violation(self, monkeypatch):
        # for (1, 1, 3) no prime has gcd(p - 1, 2) = 1; a density of 1/3
        # there makes the mean 11/3
        real = monodyn.mean_values.class_law

        def shifted(L, s):
            law = real(L, s)
            law[1] += Fraction(1, 3)
            return law

        monkeypatch.setattr(monodyn.mean_values, "class_law", shifted)
        with pytest.raises(InvariantViolation, match="not integral: 11/3"):
            dirichlet_D(1, 1, 3)

    def test_agrees_with_analytic(self):
        for r in range(1, 7):
            for s in range(1, 5):
                for n in range(2, 11):
                    assert dirichlet_D(r, s, n) == analytic_N(r, s, n), (r, s, n)


class PoolRefused(Exception):
    pass


class TestEmpiricalSweep:
    def test_degenerate_case_is_exactly_two(self):
        rep = empirical_mean(1, 1, 2, 1000)
        assert rep.analytic == 2
        assert [c.t for c in rep.checkpoints] == [10, 100, 1000]
        for c in rep.checkpoints:
            assert c.mean == 2
            assert c.total == 2 * c.prime_count
        assert rep.final_abs_error == 0

    def test_sieve_bound_is_a_resource_cap(self):
        with pytest.raises(ResourceCapError):
            empirical_mean(1, 1, 2, SIEVE_CAP + 1)
        with pytest.raises(InputRangeError):
            empirical_mean(1, 1, 2, 1)

    def test_prime_counts_at_checkpoints(self):
        rep = empirical_mean(2, 1, 2, 100)
        assert [c.prime_count for c in rep.checkpoints] == [4, 25]

    def test_small_sweep_exact_totals(self):
        # r=1, s=1, n=3: per prime the count is gcd(2, p-1) + 1
        rep = empirical_mean(1, 1, 3, 50, checkpoints=[50])
        primes = [p for p in range(2, 51) if naive_is_prime(p)]
        want = sum(math.gcd(2, p - 1) + 1 for p in primes)
        assert rep.checkpoints[-1].total == want
        assert rep.checkpoints[-1].mean == Fraction(want, len(primes))

    def test_worker_count_does_not_change_report(self):
        one = empirical_mean(2, 2, 3, 30000, checkpoints=[101, 9999, 30000])
        three = empirical_mean(
            2, 2, 3, 30000, checkpoints=[101, 9999, 30000], workers=3
        )
        assert one == three

    def test_checkpoints_sorted_and_terminal(self):
        rep = empirical_mean(1, 1, 5, 500, checkpoints=[300, 20, 500, 20])
        ts = [c.t for c in rep.checkpoints]
        assert ts == [20, 300, 500]

    def test_missing_terminal_checkpoint_is_added(self):
        rep = empirical_mean(1, 1, 5, 500, checkpoints=[100])
        assert [c.t for c in rep.checkpoints] == [100, 500]

    def test_error_shrinks_on_long_range(self):
        rep = empirical_mean(1, 1, 3, 200000, checkpoints=[1000, 200000])
        small, big = rep.checkpoints
        err_small = abs(small.mean - rep.analytic)
        err_big = abs(big.mean - rep.analytic)
        assert err_big < err_small
        assert err_big < Fraction(1, 50)

    def test_checkpoints_refused_before_any_work(self, monkeypatch):
        # n - 1 = (2**31 - 1) * (2**31 - 19), which analytic_N would factor
        def refuse(*args):
            raise AssertionError("analytic_N ran before the checkpoints were checked")

        monkeypatch.setattr(monodyn.mean_values, "analytic_N", refuse)
        with pytest.raises(InputRangeError):
            empirical_mean(1, 1, 4611685975477714964, 100, checkpoints=[1])

    def test_input_errors(self):
        with pytest.raises(InputRangeError):
            empirical_mean(1, 1, 2, 1)
        with pytest.raises(InputRangeError):
            empirical_mean(0, 1, 2, 100)
        with pytest.raises(InputRangeError):
            empirical_mean(1, 1, 2, 100, checkpoints=[200])
        with pytest.raises(InputRangeError):
            empirical_mean(1, 1, 2, 100, checkpoints=[1])
        # only None means the default checkpoints; an empty list is refused
        with pytest.raises(InputRangeError):
            empirical_mean(1, 1, 2, 100, checkpoints=[])
        with pytest.raises(InputRangeError):
            empirical_mean(1, 1, 2, 100, workers=0)
        with pytest.raises(InputRangeError):
            empirical_mean(1, 1, 2, 100, workers=MAX_WORKERS + 1)

    def test_pool_never_larger_than_block_count(self, monkeypatch):
        # the pool refuses to start, so no process is ever created; the
        # parent has only computed the base primes by then
        sizes = []

        def refuse(max_workers):
            sizes.append(max_workers)
            raise PoolRefused

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        # the sieve segments of 2**21 numbers cut [0, 5000001) into three
        for workers in (2, 3, MAX_WORKERS):
            with pytest.raises(PoolRefused):
                empirical_mean(1, 1, 2, 5_000_000, workers=workers)
        assert sizes == [2, 3, 3]
        # one segment needs no pool at all
        rep = empirical_mean(1, 1, 2, 1000, checkpoints=[1000], workers=MAX_WORKERS)
        assert rep.checkpoints[-1].total == 2 * 168
        assert sizes == [2, 3, 3]

    def test_each_number_sieved_once_whatever_the_checkpoints(self, monkeypatch):
        calls = []

        def record(lo, hi, base):
            calls.append((lo, hi))
            return prime_segment(lo, hi, base)

        monkeypatch.setattr(monodyn.mean_values, "prime_segment", record)
        t = 5_000_000
        plain = empirical_mean(1, 1, 3, t)
        default_calls = calls.copy()
        calls.clear()
        cps = [*range(25_000, t - 25_000, 25_000), SIEVE_SEGMENT - 1, SIEVE_SEGMENT]
        assert len(set(cps)) == 200
        dense = empirical_mean(1, 1, 3, t, checkpoints=cps)
        edges = [*range(0, t + 1, SIEVE_SEGMENT), t + 1]
        assert default_calls == list(zip(edges, edges[1:]))
        assert calls == default_calls
        assert len(dense.checkpoints) == 201
        assert dense.checkpoints[-1] == plain.checkpoints[-1]

    def test_default_checkpoints(self):
        assert default_checkpoints(1000) == [10, 100, 1000]
        assert default_checkpoints(2500) == [10, 100, 1000, 2500]
        assert default_checkpoints(10) == [10]


@lru_cache(maxsize=None)
def oracle_primes(t: int) -> tuple[int, ...]:
    return tuple(naive_primes(t))


def assert_sweep_matches_oracle(r, s, n, t, checkpoints=None):
    """One and two workers give one report, whose every checkpoint has the
    scalar loop's prime count and total; the report is returned."""
    one = empirical_mean(r, s, n, t, checkpoints=checkpoints)
    two = empirical_mean(r, s, n, t, checkpoints=checkpoints, workers=2)
    assert one == two
    primes = oracle_primes(t)
    total = k = 0
    for cp in one.checkpoints:  # the scalar loop, one interval at a time
        below = bisect_right(primes, cp.t)
        total += scalar_sweep_total(r, s, n, primes[k:below])
        k = below
        assert (cp.prime_count, cp.total) == (k, total), cp.t
    return one


class TestSweepAgainstScalarLoop:
    """Class-counted totals against the per-prime loop, at every checkpoint."""

    @pytest.mark.parametrize(
        "r, s, n, t",
        [
            (6, 1, 3, 30000),  # p - 1 in int64
            (3, 2, 2, 30000),  # p**2 - 1 in int64
            (2, 3, 3, 2_200_000),  # p**3 past 2**63, L = 8: pow per prime
            (20, 3, 3, 2_200_000),  # the same with L > 3.04e9
            (6, 2**40, 2, 30000),  # L = 63, divisible by the primes 3 and 7
            (40, 2**40, 2, 30000),  # L = 2**40 - 1: pow per prime
        ],
    )
    def test_each_residue_branch(self, r, s, n, t):
        assert_sweep_matches_oracle(r, s, n, t)

    @pytest.mark.parametrize(
        "r, s, n, t, l",
        [
            (32, 2, 2, 300000, 65537),  # L = 2**32 - 1; p = 262147 hits 65537
            (18, 2, 7, 300000, 117307),  # p = 234613 hits 117307
        ],
    )
    def test_prime_factor_of_L_above_table_cap(self, r, s, n, t, l):
        assert (n**r - 1) % l == 0 and l > 2**16
        assert any((p**s - 1) % l == 0 for p in oracle_primes(t))
        assert_sweep_matches_oracle(r, s, n, t)

    def test_checkpoints_on_and_next_to_block_cuts(self):
        # a job counts each checkpoint interval _CLASS_BLOCK primes at a
        # time; with checkpoints around the 20000th, 40001st and 60003rd
        # primes, 224737, 479939 and 746797, the long intervals hold one
        # prime less than a block, a whole block and one prime more, all
        # inside the first sieve segment, which ends at SIEVE_SEGMENT = 2**21
        cps = [p + d for p in (224737, 479939, 746797) for d in (-1, 0, 1)]
        ends = [bisect_right(oracle_primes(2_200_000), c) for c in cps]
        block = monodyn.mean_values._CLASS_BLOCK
        sizes = [b - a for a, b in zip([0, *ends], ends)]
        assert sizes == [block - 1, 1, 0, block, 1, 0, block + 1, 1, 0]
        cps += [SIEVE_SEGMENT - 1, SIEVE_SEGMENT, SIEVE_SEGMENT + 1]
        assert_sweep_matches_oracle(6, 1, 3, 2_200_000, cps)
        assert_sweep_matches_oracle(12, 2, 2, 2_200_000, cps)


class TestClassBlockSize:
    """The report does not depend on how many primes a gcd_classes call gets."""

    @pytest.mark.parametrize(
        "t, cps, blocks",
        [
            # no prime lies in 24..28 or in 114..126; 2, 3, 113, 127 are primes
            (3000, [2, 3, *range(24, 29), 113, *range(114, 128)], (1, 2, 7, 10**9)),
            # the pool path, with checkpoints on both sides of a segment edge;
            # a block of 1 would take one gcd_classes call per prime
            (2_200_000, [SIEVE_SEGMENT + d for d in (-1, 0, 1)], (997, 10**9)),
        ],
    )
    def test_any_block_gives_the_default_report(self, monkeypatch, t, cps, blocks):
        # L = 720720 = 2**4 * 3**2 * 5 * 7 * 11 * 13 has 240 classes g, each
        # with the nonzero count F(g) = g + 1, so no prime goes unweighed
        want = assert_sweep_matches_oracle(1, 2, 720721, t, cps)
        for block in blocks:
            monkeypatch.setattr(monodyn.mean_values, "_CLASS_BLOCK", block)
            for workers in (1, 2):
                got = empirical_mean(1, 2, 720721, t, checkpoints=cps, workers=workers)
                assert got == want, (block, workers)


class TestDivergence:
    def test_partial_sums_grow(self):
        series = divergence_series(lambda r: analytic_N(r, 1, 2), 2, 31)
        assert len(series.point_sums) == len(series.cycle_sums) == 31
        for a, b in zip(series.point_sums, series.point_sums[1:]):
            assert b >= a
        for a, b in zip(series.cycle_sums, series.cycle_sums[1:]):
            assert b >= a

    def test_strict_growth_at_primes(self):
        series = divergence_series(lambda r: analytic_N(r, 1, 2), 2, 31)
        sums = dict(enumerate(series.point_sums, 1))
        for r in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert sums[r] > sums[r - 1], r

    def test_values_match_analytic(self):
        series = divergence_series(lambda r: analytic_N(r, 2, 3), 3, 8)
        running = 0
        for r, got in enumerate(series.point_sums, 1):
            running += analytic_N(r, 2, 3)
            assert got == running

    def test_r_max_zero_rejected(self):
        with pytest.raises(InputRangeError):
            divergence_series(lambda r: analytic_N(r, 1, 2), 2, 0)

    def test_refused_before_first_term_when_no_r_is_admissible(self):
        terms = []
        with pytest.raises(InputRangeError):
            divergence_series(terms.append, 2**63 + 1, 1)
        assert terms == []

    def test_cap_reported(self):
        cap = max_exponent(2)
        with pytest.raises(InputRangeError) as err:
            divergence_series(lambda r: analytic_N(r, 1, 2), 2, cap + 1)
        assert str(cap) in str(err.value)
