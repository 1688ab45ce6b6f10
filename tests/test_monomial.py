from collections import Counter
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monodyn import monomial
from monodyn.errors import InputRangeError, InvariantViolation
from monodyn.monomial import (
    cycle_count,
    has_r_periodic,
    is_bijective,
    is_fixed_point_system,
    m_j,
    periodic_count,
    profile,
    q_star,
    r_hat,
)
from monodyn.numtheory import divisors

from oracles import literal_has_r_periodic, naive_divisors, naive_factor


PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                37, 41, 43, 47, 49, 53, 59, 61, 64, 67, 71, 73, 79, 81, 83, 89,
                97, 101, 121, 125, 127, 128, 131, 137, 139, 149, 151, 157, 163,
                167, 169, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
                233, 239, 241, 243, 251, 256, 257, 263, 269, 271, 277, 281, 283,
                289, 293, 307, 311, 313, 317, 331, 337, 343, 347, 349, 353, 359]


def brute_m_j(q: int, n: int, j: int) -> int:
    return gcd(n**j - 1, q - 1)


class TestMj:
    def test_goldens(self):
        assert m_j(7, 2, 1) == 1
        assert m_j(7, 2, 2) == 3
        assert m_j(3, 3, 1) == 2
        assert m_j(5, 2, 1) == 1
        assert m_j(5, 2, 2) == 1

    def test_q2_always_one(self):
        for n in range(2, 20):
            for j in range(1, 6):
                assert m_j(2, n, j) == 1

    @given(
        st.sampled_from(PRIME_POWERS),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=12),
    )
    def test_matches_direct_gcd(self, q, n, j):
        assert m_j(q, n, j) == brute_m_j(q, n, j)

    def test_large_exponent_stays_cheap(self):
        # the residue route never forms n**j; check against builtin pow
        M = 2**31 - 1
        t = pow(2, 10**6, M)
        assert m_j(2**31, 2, 10**6) == gcd((t + M - 1) % M, M)
        # and against full-size arithmetic where that is still feasible
        assert m_j(101, 3, 2000) == gcd(3**2000 - 1, 100)

    def test_input_errors(self):
        with pytest.raises(InputRangeError):
            m_j(1, 2, 1)
        with pytest.raises(InputRangeError):
            m_j(7, 1, 1)
        with pytest.raises(InputRangeError):
            m_j(7, 2, 0)
        with pytest.raises(InputRangeError):
            m_j(2**31 + 1, 2, 1)


class TestPeriodicCounts:
    def test_goldens(self):
        assert periodic_count(7, 2, 1) == 2
        assert periodic_count(7, 2, 2) == 2
        assert cycle_count(7, 2, 1) == 2
        assert cycle_count(7, 2, 2) == 1
        assert periodic_count(5, 2, 2) == 0
        assert periodic_count(3, 3, 2) == 0
        assert periodic_count(3, 3, 1) == 3
        assert sum(cycle_count(2, 5, r) for r in divisors(r_hat(2, 5))) == 2

    def test_point_count_identity(self):
        # m_j + 1 recovered by summing exact-period counts over divisors
        for q in (7, 9, 19, 31, 64, 121, 243):
            for n in (2, 3, 5, 6, 10):
                for j in range(1, 13):
                    lhs = m_j(q, n, j) + 1
                    rhs = sum(periodic_count(q, n, d) for d in naive_divisors(j))
                    assert lhs == rhs, (q, n, j)

    def test_residue_gcd_drops_to_q_star(self):
        for q in PRIME_POWERS[:40]:
            for n in (2, 3, 4, 7):
                qs = q_star(q, n)
                for r in range(1, 9):
                    assert gcd(n**r - 1, q - 1) == gcd(n**r - 1, qs), (q, n, r)

    @given(
        st.sampled_from(PRIME_POWERS),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=2, max_value=10),
    )
    def test_existence_test_matches_count(self, q, n, r):
        assert has_r_periodic(q, n, r) == (periodic_count(q, n, r) > 0)

    def test_existence_matches_literal_criterion(self):
        for q in (q for q in range(2, 501) if len(naive_factor(q)) == 1):
            for n in range(2, 17):
                for r in range(2, 25):
                    want = literal_has_r_periodic(q, n, r)
                    assert has_r_periodic(q, n, r) == want, (q, n, r)

    def test_period_zero_rejected(self):
        with pytest.raises(InputRangeError):
            periodic_count(7, 2, 0)

    def test_existence_rejects_fixed_points(self):
        with pytest.raises(InputRangeError):
            has_r_periodic(7, 2, 1)
        with pytest.raises(InputRangeError):
            has_r_periodic(7, 2, 0)

    @pytest.mark.parametrize("count", [periodic_count, has_r_periodic])
    def test_r_past_63_bits_named(self, count):
        r = 10**30
        with pytest.raises(InputRangeError) as err:
            count(7, 2, r)
        assert str(err.value) == f"r must be at most 2**63 - 1, got {r}"

    @pytest.mark.parametrize("count", [periodic_count, cycle_count])
    @pytest.mark.parametrize(
        "r, line",
        [
            (0, "r must be >= 1, got 0"),
            (-1, "r must be >= 1, got -1"),
            (10**30, f"r must be at most 2**63 - 1, got {10**30}"),
        ],
        ids=["zero", "negative", "past_63_bits"],
    )
    def test_r_refused_with_the_command_texts(self, count, r, line):
        with pytest.raises(InputRangeError) as err:
            count(7, 2, r)
        assert str(err.value) == line

    @given(
        st.sampled_from(PRIME_POWERS),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=12),
    )
    def test_count_divisible_by_period(self, q, n, r):
        assert periodic_count(q, n, r) % r == 0

    def test_maximum_period_is_attained(self):
        for q in PRIME_POWERS:
            for n in (2, 3, 5, 11):
                assert periodic_count(q, n, r_hat(q, n)) > 0, (q, n)

    def test_indivisible_count_is_an_invariant_violation(self, monkeypatch):
        real = monomial.periodic_count
        monkeypatch.setattr(
            monomial, "periodic_count", lambda q, n, r: real(q, n, r) + (r == 2)
        )
        with pytest.raises(InvariantViolation, match="is not divisible by 2"):
            cycle_count(19, 2, 2)


class TestTotals:
    @given(st.sampled_from(PRIME_POWERS), st.integers(min_value=2, max_value=20))
    def test_total_periodic_is_q_star_plus_one(self, q, n):
        total = sum(periodic_count(q, n, r) for r in range(1, r_hat(q, n) + 1))
        assert total == q_star(q, n) + 1

    def test_bijectivity_criterion(self):
        for q in PRIME_POWERS[:40]:
            for n in range(2, 12):
                assert is_bijective(q, n) == (gcd(q - 1, n) == 1)
                if is_bijective(q, n):
                    assert q_star(q, n) == q - 1

    def test_fixed_point_goldens(self):
        assert is_fixed_point_system(5, 5) is True
        assert is_fixed_point_system(7, 2) is False
        assert is_fixed_point_system(2, 7) is True

    @given(st.sampled_from(PRIME_POWERS), st.integers(min_value=2, max_value=20))
    def test_fixed_point_iff_unit_order(self, q, n):
        assert is_fixed_point_system(q, n) == (r_hat(q, n) == 1)


class TestProfile:
    def test_golden_7_2(self):
        prof = profile(7, 2)
        assert prof.r_hat == 2
        assert prof.per_period == {1: 2, 2: 2}
        assert prof.per_length == {1: 2, 2: 1}
        assert sum(prof.per_period.values()) == 4
        assert sum(prof.per_length.values()) == 3

    def test_golden_19_2(self):
        prof = profile(19, 2)
        assert prof.r_hat == 6
        assert prof.per_period == {1: 2, 2: 2, 6: 6}
        assert prof.per_length == {1: 2, 2: 1, 6: 1}
        # divisor 3 of 6 carries no points and is dropped
        assert 3 not in prof.per_period

    def test_golden_2_2(self):
        prof = profile(2, 2)
        assert prof.per_period == {1: 2}
        assert sum(prof.per_period.values()) == 2
        assert sum(prof.per_length.values()) == 2

    @given(st.sampled_from(PRIME_POWERS), st.integers(min_value=2, max_value=16))
    def test_profile_consistency(self, q, n):
        prof = profile(q, n)
        assert set(prof.per_period) == set(prof.per_length)
        for r, cnt in prof.per_period.items():
            assert r_hat(q, n) % r == 0
            assert cnt == prof.per_length[r] * r
        assert sum(prof.per_period.values()) == q_star(q, n) + 1
        cycles = sum(cycle_count(q, n, r) for r in divisors(r_hat(q, n)))
        assert sum(prof.per_length.values()) == cycles
        assert max(prof.per_period) == prof.r_hat

    def test_keys_are_occurring_lengths_only(self):
        for q, n in ((31, 2), (127, 2), (257, 3), (73, 2)):
            prof = profile(q, n)
            for r in divisors(prof.r_hat):
                present = r in prof.per_period
                assert present == (periodic_count(q, n, r) > 0), (q, n, r)

    def test_each_period_counted_once(self, monkeypatch):
        calls = Counter()
        real = monomial.periodic_count

        def counting(q, n, r):
            calls[r] += 1
            return real(q, n, r)

        monkeypatch.setattr(monomial, "periodic_count", counting)
        for q, n in ((19, 2), (127, 2), (729, 4), (8191, 3)):
            calls.clear()
            prof = monomial.profile(q, n)
            assert calls == Counter(divisors(prof.r_hat)), (q, n)

    def test_negative_count_is_an_invariant_violation(self, monkeypatch):
        real = monomial.periodic_count
        monkeypatch.setattr(
            monomial, "periodic_count", lambda q, n, r: -6 if r == 6 else real(q, n, r)
        )
        with pytest.raises(InvariantViolation, match="negative period-6 count"):
            profile(19, 2)

    def test_second_profile_adds_no_mobius_terms_misses(self):
        info = monomial.mobius_terms.cache_info
        monomial.mobius_terms.cache_clear()
        profile(1000003, 7)
        misses = info().misses
        assert misses > 1
        profile(1000003, 7)
        assert info().misses == misses
