import random
from bisect import bisect_left
from collections import Counter
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monodyn.errors import InputRangeError, ResourceCapError
from monodyn.numtheory import (
    MAX_INPUT,
    SIEVE_CAP,
    SIEVE_SEGMENT,
    check_prime_power,
    coprime_part,
    divisors,
    euler_phi,
    factorize,
    gcd_classes,
    is_prime,
    max_exponent,
    mobius_terms,
    multiplicative_order,
    pow_minus_one,
    prime_powers_up_to,
    prime_segment,
    primes_up_to,
    tau,
    v_s,
)
from oracles import (
    brute_v_s,
    lucas_lehmer,
    naive_divisors,
    naive_factor,
    naive_is_prime,
    naive_mobius,
    naive_order,
    naive_phi,
    naive_primes,
)

pos = st.integers(min_value=1, max_value=200_000)


def mu(m: int) -> int:
    """mu(m) as mobius_terms states it: the sign of its k = 1 term, if any."""
    return next((sign for sign, k in mobius_terms(m) if k == 1), 0)


class TestFactorize:
    def test_one_has_empty_factorization(self):
        assert factorize(1) == ()

    def test_small_goldens(self):
        assert factorize(6) == ((2, 1), (3, 1))
        assert factorize(360) == ((2, 3), (3, 2), (5, 1))

    def test_mersenne_prime_is_a_single_factor(self):
        m = 2**61 - 1
        assert factorize(m) == ((m, 1),)

    def test_max_input_value(self):
        f = factorize(MAX_INPUT)  # 2^63 - 1, verified by direct multiplication
        assert f == (
            (7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1),
        )

    def test_primorial_splits_completely(self):
        m = 614889782588491410  # product of the first 15 primes
        f = factorize(m)
        assert [p for p, _ in f] == naive_primes(47)
        assert all(e == 1 for _, e in f)

    @given(pos)
    def test_matches_trial_division(self, m):
        assert dict(factorize(m)) == naive_factor(m)

    @given(st.integers(min_value=2, max_value=10**6))
    def test_reconstructs_value_with_prime_parts(self, m):
        f = factorize(m)
        prod = 1
        for p, e in f:
            assert is_prime(p)
            prod *= p**e
        assert prod == m

    def test_range_errors(self):
        with pytest.raises(InputRangeError):
            factorize(0)
        with pytest.raises(InputRangeError):
            factorize(MAX_INPUT + 1)


def oracle_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime in [lo, hi), hi even, certified by trial division."""
    while True:
        p = rng.randrange(lo, hi) | 1
        if naive_is_prime(p):
            return p


class TestFactorizeLargeCofactors:
    """Inputs with a cofactor left after trial division below 2**10,
    against factorizations known by construction from primes that
    trial division certifies."""

    def test_31_bit_primes_and_their_small_multiples(self):
        rng = random.Random(31)
        for _ in range(12):
            p = oracle_prime(rng, 2**30, 2**31)
            k = rng.randrange(1, 1025)
            assert factorize(p) == ((p, 1),)
            assert dict(factorize(k * p)) == naive_factor(k * p)

    def test_squares_of_primes_past_the_test(self):
        rng = random.Random(2)
        primes = [1031, 999983] + [oracle_prime(rng, 1026, 10**6) for _ in range(10)]
        for p in primes:
            assert naive_is_prime(p)
            assert factorize(p * p) == ((p, 2),)

    def test_semiprimes_of_20_to_31_bit_primes(self):
        rng = random.Random(3)
        for _ in range(12):
            bits = rng.randint(20, 31), rng.randint(20, 31)
            p, q = sorted(oracle_prime(rng, 2 ** (b - 1), 2**b) for b in bits)
            expected = ((p, 2),) if p == q else ((p, 1), (q, 1))
            assert factorize(p * q) == expected

    def test_powers_and_products_of_known_primes(self):
        cases = {}
        for p in naive_primes(3000):
            if p > 1024:
                cases[p**2] = ((p, 2),)
                cases[p**3] = ((p, 3),)
                cases[7 * p**2] = ((7, 1), (p, 2))
        rng = random.Random(16)
        for lo, hi, count in ((2**19, 10**6, 100), (2**20, 2**31, 20)):
            for _ in range(count):
                p, q = sorted(oracle_prime(rng, lo, hi) for _ in range(2))
                cases[p * q] = ((p, 2),) if p == q else ((p, 1), (q, 1))
        assert naive_is_prime(715827883) and naive_is_prime(2**31 - 1)
        cases[2**61 - 1] = ((2**61 - 1, 1),)
        cases[2**62 - 1] = ((3, 1), (715827883, 1), (2**31 - 1, 1))
        cases[(2**31 - 1) ** 2] = ((2**31 - 1, 2),)
        for m, expected in cases.items():
            assert factorize(m) == expected, m

    def test_random_63_bit_inputs(self):
        rng = random.Random(63)
        for _ in range(500):
            m = rng.randrange(1, 2**63)
            f = factorize(m)
            prod = 1
            for p, e in f:
                assert is_prime(p), (m, p)
                prod *= p**e
            assert prod == m
            assert [p for p, _ in f] == sorted({p for p, _ in f}), m

    @pytest.mark.parametrize("e", [29, 31, 37, 41, 43, 47, 53, 59, 61])
    def test_mersenne_numbers_against_lucas_lehmer(self, e):
        m = 2**e - 1
        f = factorize(m)
        assert (f == ((m, 1),)) == lucas_lehmer(e)
        prod = 1
        for p, k in f:
            assert is_prime(p)
            prod *= p**k
        assert prod == m


class TestIsPrime:
    def test_exhaustive_small(self):
        for m in range(2000):
            assert is_prime(m) == naive_is_prime(m), m

    def test_carmichael_numbers_rejected(self):
        for m in (561, 1105, 1729, 41041, 825265, 321197185):
            assert not is_prime(m)

    def test_large_primes(self):
        assert is_prime(2**31 - 1)
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**31 + 11))


class TestDivisorFunctions:
    def test_goldens(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert tau(12) == 6
        assert euler_phi(12) == 4
        assert mu(1) == 1
        assert mu(4) == 0
        assert mu(30) == -1

    @given(st.integers(min_value=1, max_value=3000))
    def test_against_naive(self, m):
        assert divisors(m) == naive_divisors(m)
        assert tau(m) == len(naive_divisors(m))
        assert euler_phi(m) == naive_phi(m)
        assert mu(m) == naive_mobius(m)

    def test_mobius_sum_collapses(self):
        for m in range(1, 3000):
            total = sum(sign for sign, _ in mobius_terms(m))
            assert total == (1 if m == 1 else 0), m

    def test_phi_divisor_sum(self):
        for m in range(1, 2000):
            assert sum(euler_phi(d) for d in divisors(m)) == m

    def test_phi_mobius_identity(self):
        for s in range(1, 500):
            assert euler_phi(s) == sum(sign * k for sign, k in mobius_terms(s))

    def test_mobius_terms_goldens(self):
        assert mobius_terms(1) == ((1, 1),)
        assert mobius_terms(12) == ((1, 12), (-1, 6), (-1, 4), (1, 2))
        assert mobius_terms(30)[-1] == (-1, 1)

    @given(st.integers(min_value=1, max_value=3000))
    def test_mobius_terms_against_naive(self, r):
        want = tuple(
            (naive_mobius(d), r // d)
            for d in naive_divisors(r)
            if naive_mobius(d)
        )
        assert mobius_terms(r) == want


class TestMultiplicativeOrder:
    def test_goldens(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(3, 5) == 4
        assert multiplicative_order(5, 1) == 1

    @given(st.integers(min_value=1, max_value=4000))
    def test_matches_naive_scan(self, m):
        for a in (2, 3, 7, m - 1):
            if a >= 1 and gcd(a, m) == 1:
                assert multiplicative_order(a, m) == naive_order(a, m)

    @given(st.integers(min_value=2, max_value=10**4))
    def test_divides_phi(self, m):
        a = next(x for x in range(2, m + 2) if gcd(x, m) == 1)
        assert euler_phi(m) % multiplicative_order(a, m) == 0

    def test_requires_coprime(self):
        with pytest.raises(InputRangeError):
            multiplicative_order(6, 9)


class TestVs:
    def test_goldens(self):
        assert v_s(2, 8) == 4
        assert v_s(2, 12) == 4
        assert all(v_s(1, l) == 1 for l in range(1, 50))

    def test_exhaustive_small(self):
        for l in range(1, 300):
            for s in range(1, 9):
                assert v_s(s, l) == brute_v_s(s, l), (s, l)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=2000),
    )
    def test_against_brute_force(self, s, l):
        assert v_s(s, l) == brute_v_s(s, l)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
    )
    def test_multiplicative_in_l(self, s, a, b):
        if gcd(a, b) == 1:
            assert v_s(s, a * b) == v_s(s, a) * v_s(s, b)


class TestCoprimePart:
    def test_goldens(self):
        assert coprime_part(6, 2) == 3
        assert coprime_part(4, 5) == 4
        assert coprime_part(2, 3) == 2
        assert coprime_part(17, 1) == 17

    @given(pos, st.integers(min_value=1, max_value=10**4))
    def test_definition(self, m, n):
        c = coprime_part(m, n)
        assert m % c == 0
        assert gcd(c, n) == 1
        rest = m // c
        # every prime of the stripped part divides n
        for p in naive_factor(rest):
            assert n % p == 0


class TestPowMinusOne:
    def test_exact_cap_boundary(self):
        assert max_exponent(2) == 63
        assert pow_minus_one(2, 63) == 2**63 - 1
        with pytest.raises(InputRangeError) as err:
            pow_minus_one(2, 64)
        assert "63" in str(err.value)

    def test_input_errors(self):
        with pytest.raises(InputRangeError):
            max_exponent(1)
        with pytest.raises(InputRangeError):
            pow_minus_one(1, 3)

    def test_no_admissible_exponent(self):
        # n - 1 <= 2**63 - 1 exactly when n <= 2**63
        assert max_exponent(2**63) == 1
        assert pow_minus_one(2**63, 1) == MAX_INPUT
        assert max_exponent(2**63 + 1) == 0
        with pytest.raises(InputRangeError) as err:
            pow_minus_one(2**63 + 1, 1)
        assert "no r is admissible" in str(err.value)

    @given(st.integers(min_value=2, max_value=100))
    def test_max_exponent_is_tight(self, n):
        r = max_exponent(n)
        assert n**r - 1 <= MAX_INPUT
        assert n ** (r + 1) - 1 > MAX_INPUT


class TestPrimes:
    def test_goldens(self):
        assert primes_up_to(10) == [2, 3, 5, 7]
        assert primes_up_to(1) == []
        assert len(primes_up_to(100)) == 25
        assert len(primes_up_to(10**6)) == 78498

    def test_against_independent_sieve(self):
        assert primes_up_to(20_000) == naive_primes(20_000)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            primes_up_to(SIEVE_CAP + 1)
        with pytest.raises(InputRangeError):
            primes_up_to(-1)

    def test_every_small_bound(self):
        for t in range(301):
            assert primes_up_to(t) == naive_primes(t), t

    def test_at_a_million(self):
        assert primes_up_to(10**6) == naive_primes(10**6)

    def test_past_two_segments(self):
        # one sieve over the whole range, across two SIEVE_SEGMENT edges
        t = 2 * SIEVE_SEGMENT + 60
        assert primes_up_to(t) == naive_primes(t)


class TestPrimeSegment:
    def test_every_range_below_400(self):
        primes = naive_primes(400)
        for hi in range(1, 401):
            for lo in range(hi):
                got = prime_segment(lo, hi, primes)
                want = primes[bisect_left(primes, lo) : bisect_left(primes, hi)]
                assert got.dtype == np.int64
                assert got.tolist() == want, (lo, hi)

    def test_no_base_primes_below_25(self):
        for hi in range(1, 26):
            for lo in range(hi):
                want = [p for p in naive_primes(hi - 1) if p >= lo]
                assert prime_segment(lo, hi, []).tolist() == want, (lo, hi)

    def test_windows_around_segment_edges(self):
        # every start and every end within 60 of the edge, on both sides
        primes = naive_primes(2 * SIEVE_SEGMENT + 60)
        base = naive_primes(isqrt(2 * SIEVE_SEGMENT + 60))
        for k in (1, 2):
            edge = k * SIEVE_SEGMENT
            ranges = [(lo, edge + 61) for lo in range(edge - 60, edge + 61)]
            ranges += [(edge - 60, hi) for hi in range(edge - 59, edge + 61)]
            for lo, hi in ranges:
                want = primes[bisect_left(primes, lo) : bisect_left(primes, hi)]
                assert prime_segment(lo, hi, base).tolist() == want, (lo, hi)


class TestGcdClasses:
    # v = 1 makes x = 0, whose gcd with m is m itself
    VALUES = naive_primes(3000) + [1, 2**21 - 1, 2**21 + 1, 99_999_989]

    @pytest.mark.parametrize(
        "s, m",
        [
            (1, 63),  # v - 1 in int64
            (2, 80),  # v**2 - 1 in int64
            (3, 7),  # v**3 past 2**63: pow per value, small m
            (3, 3**20 - 1),  # pow per value, (m - 1)**2 past 2**63
            (2**40, 63),
            (2**40, 2**40 - 1),
            (5, 1),
            (1, MAX_INPUT),
            # 2**60 - 1 has 11 prime powers, packed into several tables
            (1, 2**60 - 1),
            (2, 2**60 - 1),
            (3, 2**60 - 1),
        ],
    )
    def test_against_per_value_gcd(self, s, m):
        assert_classes_match(self.VALUES, s, m)

    def test_prime_power_above_table_cap(self):
        # 65537**2 is one prime power past the tables: x = 65537**2 hits
        # it fully, x = 2 * 65537 once, and the primes mostly not at all
        values = self.VALUES + [65537**2 + 1, 2 * 65537 + 1]
        assert_classes_match(values, 1, 3 * 65537**2)
        assert (65537**2, 1) in gcd_classes(
            np.array(values, dtype=np.int64), 1, 3 * 65537**2
        )

    @given(
        st.integers(min_value=1, max_value=MAX_INPUT),
        st.sampled_from([1, 2, 3]),
        st.lists(st.integers(min_value=1, max_value=MAX_INPUT), min_size=1, max_size=40),
    )
    def test_random_moduli_and_values(self, m, s, values):
        assert_classes_match(values, s, m)


def assert_classes_match(values, s, m):
    want = Counter(gcd((pow(v, s, m) + m - 1) % m, m) for v in values)
    got = gcd_classes(np.array(values, dtype=np.int64), s, m)
    assert got == sorted(want.items())


class TestPrimePowers:
    def test_base_detection(self):
        assert check_prime_power(8) == (2, 3)
        assert check_prime_power(9) == (3, 2)
        assert check_prime_power(7) == (7, 1)
        for q in (12, 1, 0, -7):
            with pytest.raises(InputRangeError, match=f"got {q}$"):
                check_prime_power(q)

    def test_listing(self):
        got = [q for q, _, _ in prime_powers_up_to(30)]
        assert got == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
        for q, p, s in prime_powers_up_to(200):
            assert p**s == q and is_prime(p)
