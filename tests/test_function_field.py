from fractions import Fraction

import pytest

from monodyn import function_field
from monodyn.errors import InputRangeError, InvariantViolation, ResourceCapError
from monodyn.function_field import (
    dirichlet_D_K,
    dirichlet_density_S,
    dirichlet_mean_solutions,
    irreducible_counts,
    oscillation_experiment,
    subsequence_limits,
)
from monodyn.mean_values import divergence_series
from monodyn.numtheory import multiplicative_order

from oracles import C_r_count, brute_irreducible_counts, naive_irreducible_count


Q_RANGE = (2, 3, 4, 5, 7, 8, 9)


def naive_pi_K(q: int, t: int) -> int:
    return sum(naive_irreducible_count(q, d) for d in range(1, t + 1))


class TestIrreducibleCounts:
    def test_goldens(self):
        assert irreducible_counts(2, 4) == [2, 1, 2, 3]
        assert irreducible_counts(3, 4) == [3, 3, 8, 18]
        assert sum(irreducible_counts(2, 3)) == 5
        assert sum(irreducible_counts(3, 2)) == 6
        assert irreducible_counts(2, 0) == []

    def test_matches_polynomial_sieve(self):
        # independent oracle: mark every reducible monic polynomial as a
        # product and count what is left
        for p in (2, 3, 5, 7):
            found = brute_irreducible_counts(p, 8 if p < 7 else 4)
            assert irreducible_counts(p, len(found)) == list(found.values()), p

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
    def test_pass_matches_necklace_formula(self, q):
        counts = irreducible_counts(q, 100)
        assert counts == [naive_irreducible_count(q, d) for d in range(1, 101)]

    def test_degree_past_int_str_limit(self):
        # 2**20000 has 6021 digits, over the default limit of 4300
        with pytest.raises(ResourceCapError):
            irreducible_counts(2, 20000)

    def test_input_errors(self):
        with pytest.raises(InputRangeError):
            irreducible_counts(6, 2)
        with pytest.raises(InputRangeError):
            irreducible_counts(2, -1)


class TestCycleSupportCounts:
    def test_goldens(self):
        # ord of 2 mod 3 is 2: degrees 2 and 4 contribute 1 + 3
        assert C_r_count(2, 3, 4) == 4
        assert C_r_count(2, 3, 1) == 0
        # ord of 3 mod 5 is 4: degree 4 contributes all 18
        assert C_r_count(3, 5, 4) == 18

    def test_r_one_counts_everything(self):
        for q in Q_RANGE:
            for t in range(0, 8):
                assert C_r_count(q, 1, t) == sum(irreducible_counts(q, t))

    def test_unit_order_counts_everything(self):
        # ord_r(q) = 1 means r | q - 1: every residue field qualifies
        assert multiplicative_order(3 % 2, 2) == 1
        for t in range(0, 8):
            assert C_r_count(3, 2, t) == sum(irreducible_counts(3, t))

    def test_ramified_r_is_empty(self):
        assert C_r_count(2, 4, 10) == 0
        assert C_r_count(3, 6, 10) == 0
        assert C_r_count(5, 10, 10) == 0

    def test_monotone_in_t(self):
        for q, r in ((2, 3), (3, 5), (4, 7)):
            prev = 0
            for t in range(0, 12):
                cur = C_r_count(q, r, t)
                assert cur >= prev
                prev = cur


class TestDensities:
    def test_dirichlet_goldens(self):
        assert dirichlet_density_S(2, 3) == Fraction(1, 2)
        assert dirichlet_density_S(3, 5) == Fraction(1, 4)
        assert dirichlet_density_S(2, 1) == 1
        assert dirichlet_density_S(3, 2) == 1

    def test_subsequence_limit_goldens(self):
        assert subsequence_limits(2, 3) == (Fraction(2, 3), Fraction(1, 3))
        assert subsequence_limits(3, 5) == (Fraction(27, 40), Fraction(1, 40))

    def test_unit_order_limits_coincide(self):
        high, low = subsequence_limits(3, 2)
        assert high == low == 1

    def test_limits_bracket_dirichlet_density(self):
        for q, r in ((2, 3), (2, 5), (3, 5), (4, 3), (5, 3), (7, 5)):
            high, low = subsequence_limits(q, r)
            dens = dirichlet_density_S(q, r)
            assert low <= dens <= high, (q, r)
            if high != low:
                assert low < dens < high, (q, r)

    def test_r_zero_rejected(self):
        with pytest.raises(InputRangeError):
            dirichlet_density_S(2, 0)

    def test_ramified_rejected(self):
        with pytest.raises(InputRangeError):
            dirichlet_density_S(2, 4)
        with pytest.raises(InputRangeError):
            subsequence_limits(3, 6)


class TestOscillation:
    def test_moderate_range_golden(self):
        rep = oscillation_experiment(2, 3, 40)
        assert rep.l_r == 2
        assert rep.limit_A == Fraction(2, 3)
        assert rep.limit_B == Fraction(1, 3)
        last = rep.series[-1]
        assert last.t == 40 and "A" in last.tag
        assert abs(last.ratio - rep.limit_A) < Fraction(1, 100)
        b_points = [pt for pt in rep.series if "B" in pt.tag]
        assert abs(b_points[-1].ratio - rep.limit_B) < Fraction(1, 100)

    def test_series_bookkeeping(self):
        rep = oscillation_experiment(2, 3, 36)
        assert len(rep.series) == 36
        for pt in rep.series:
            assert pt.pi_K == naive_pi_K(2, pt.t)
            assert pt.c_r == C_r_count(2, 3, pt.t)
            assert pt.ratio == Fraction(pt.c_r, pt.pi_K)
            assert ("A" in pt.tag) == (pt.t % 2 == 0)
            assert ("B" in pt.tag) == (pt.t % 2 == 1)

    def test_oscillation_does_not_settle(self):
        rep = oscillation_experiment(2, 3, 30)
        tail = [pt.ratio for pt in rep.series[-6:]]
        assert max(tail) - min(tail) > Fraction(1, 5)

    def test_unit_order_ratio_is_constant_one(self):
        rep = oscillation_experiment(3, 2, 10)
        assert rep.l_r == 1
        for pt in rep.series:
            assert pt.ratio == 1
            assert pt.tag == "AB"

    def test_tiny_range_is_a_valid_series(self):
        # the B errors still rise near t = 12; that is no violation
        rep = oscillation_experiment(2, 3, 12)
        assert [pt.t for pt in rep.series] == list(range(1, 13))
        for pt in rep.series:
            assert (pt.pi_K, pt.c_r) == (naive_pi_K(2, pt.t), C_r_count(2, 3, pt.t))
            assert pt.ratio == Fraction(pt.c_r, pt.pi_K)
        b_errs = [abs(pt.ratio - rep.limit_B) for pt in rep.series if "B" in pt.tag]
        assert b_errs[-2] < b_errs[-1]

    def test_corrupted_counts_break_the_range_invariant(self, monkeypatch):
        # no true count is negative; C_r = -5 > pi_K = -3 must not pass
        bad = [2, -5, 2, 3]
        monkeypatch.setattr(function_field, "irreducible_counts", lambda q, t: bad[:t])
        with pytest.raises(InvariantViolation, match=r"ratio 5/3 outside \[0, 1\]"):
            oscillation_experiment(2, 3, 4)

    def test_range_must_reach_first_subsequence_point(self):
        with pytest.raises(InputRangeError):
            oscillation_experiment(3, 5, 3)


class TestDirichletMeans:
    def test_solution_count_goldens(self):
        assert dirichlet_mean_solutions(2, 3) == 2
        assert dirichlet_mean_solutions(3, 8) == 5
        assert dirichlet_mean_solutions(2, 1) == 1

    def test_q_part_is_discarded(self):
        # solutions of x**m = 1 only see the q-coprime part of m
        assert dirichlet_mean_solutions(2, 6) == dirichlet_mean_solutions(2, 3)
        assert dirichlet_mean_solutions(3, 9) == 1
        assert dirichlet_mean_solutions(5, 50) == dirichlet_mean_solutions(5, 2)

    def test_mean_is_one_iff_m_star_trivial(self):
        for q in (2, 3, 4, 5):
            for m in range(1, 40):
                val = dirichlet_mean_solutions(q, m)
                from monodyn.numtheory import coprime_part

                if coprime_part(m, q) == 1:
                    assert val == 1, (q, m)
                else:
                    assert val > 1, (q, m)

    def test_period_mean_goldens(self):
        for q in Q_RANGE:
            assert dirichlet_D_K(q, 2, 1) == 2, q
        assert dirichlet_D_K(3, 2, 2) == 0

    def test_fixed_point_mean_is_at_least_one(self):
        for q in Q_RANGE:
            for n in range(2, 8):
                assert dirichlet_D_K(q, n, 1) >= 1, (q, n)

    def test_input_errors(self):
        with pytest.raises(InputRangeError):
            dirichlet_mean_solutions(2, 0)
        with pytest.raises(InputRangeError):
            dirichlet_D_K(2, 1, 1)
        with pytest.raises(InputRangeError):
            dirichlet_D_K(10, 2, 1)
        with pytest.raises(InputRangeError):
            dirichlet_D_K(2, 2, 0)

    @pytest.mark.parametrize("m", [0, 2**64])
    def test_m_refused_with_the_factorization_text(self, m):
        with pytest.raises(InputRangeError) as err:
            dirichlet_mean_solutions(2, m)
        bound = ">= 1" if m < 1 else "at most 2**63 - 1"
        assert str(err.value) == f"m must be {bound}, got {m}"


class TestDivergenceK:
    def test_partial_sums_grow_without_bound(self):
        series = divergence_series(lambda r: dirichlet_D_K(3, 2, r), 2, 31)
        assert len(series.point_sums) == len(series.cycle_sums) == 31
        for a, b in zip(series.point_sums, series.point_sums[1:]):
            assert b >= a
        assert series.point_sums[-1] > series.point_sums[0] + 5

    def test_running_sum_matches_term_values(self):
        series = divergence_series(lambda r: dirichlet_D_K(2, 3, r), 3, 10)
        running = Fraction(0)
        for r, got in enumerate(series.point_sums, 1):
            running += dirichlet_D_K(2, 3, r)
            assert got == running

    def test_cap_enforced(self):
        from monodyn.numtheory import max_exponent

        with pytest.raises(InputRangeError):
            divergence_series(
                lambda r: dirichlet_D_K(2, 2, r), 2, max_exponent(2) + 1
            )
