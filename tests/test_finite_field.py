import hashlib
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monodyn import finite_field
from monodyn.errors import InputRangeError, ResourceCapError
from monodyn.finite_field import (
    CHUNK,
    FIELD_CAP,
    digits,
    element_orders,
    from_digits,
    make_field,
    mul,
    power,
    to_digits,
    _is_irreducible,
)
from monodyn.function_field import irreducible_counts
from monodyn.numtheory import divisors, euler_phi, prime_powers_up_to

from oracles import digits as oracle_digits
from oracles import element_order, field_add, scalar_mul, scalar_power, undigits


SMALL_FIELDS = [(7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (13, 1)]


class TestConstruction:
    def test_prime_field_has_no_modulus(self):
        spec = make_field(7)
        assert (spec.p, spec.s, spec.q, spec.modulus) == (7, 1, 7, None)

    def test_modulus_goldens(self):
        # x^3 + x + 1 over GF(2), coefficients constant-first
        assert make_field(2, 3).modulus == (1, 1, 0, 1)
        # x^2 + 1 over GF(3)
        assert make_field(3, 2).modulus == (1, 0, 1)

    def test_modulus_is_smallest_irreducible_by_encoding(self):
        for p, s in ((2, 3), (2, 4), (3, 2), (5, 2), (3, 3)):
            spec = make_field(p, s)
            low = spec.modulus[:-1]
            enc = sum(c * p**i for i, c in enumerate(low))
            for smaller in range(enc):
                digits = []
                v = smaller
                for _ in range(s):
                    digits.append(v % p)
                    v //= p
                assert not _is_irreducible(tuple(digits), p, s), (p, s, smaller)

    def test_composite_base_rejected(self):
        with pytest.raises(InputRangeError):
            make_field(6)

    def test_degree_zero_rejected(self):
        with pytest.raises(InputRangeError):
            make_field(5, 0)

    def test_size_cap(self):
        with pytest.raises(ResourceCapError):
            make_field(2, 23)
        assert make_field(2, 22).q == FIELD_CAP

    def test_huge_degree_refused_before_any_power(self):
        # 2**(10**9) alone would take seconds and hundreds of MB
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError) as err:
            make_field(2, 10**9)
        assert time.perf_counter() - t0 < 0.5
        assert str(err.value) == f"field size 2**{10**9} exceeds the cap {FIELD_CAP}"
        with pytest.raises(InputRangeError):
            make_field(6, 10**9)  # primality is checked before the cap

    def test_every_modulus_pinned(self):
        # the moduli of all 400 extension fields up to the cap, digested
        # as recorded before the irreducibility test was rewritten
        lines = [
            f"{p} {s} {make_field(p, s).modulus}"
            for _, p, s in prime_powers_up_to(FIELD_CAP)
            if s >= 2
        ]
        assert len(lines) == 400
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "c704103cf32c6cb3ef90b599b871e4082ed709695f2c255c0fa25be00c4aa9ce"
        )

    def test_irreducible_counts_match_necklace(self):
        # the construction-time irreducibility test agrees with the
        # counting formula used by the function-field module; s = 6 is
        # the first degree with two prime divisors, so two gcd checks
        fields = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2),
                  (2, 6), (3, 4), (2, 8), (5, 3))
        for p, s in fields:
            found = 0
            for enc in range(p**s):
                digits = []
                v = enc
                for _ in range(s):
                    digits.append(v % p)
                    v //= p
                if _is_irreducible(tuple(digits), p, s):
                    found += 1
            assert found == irreducible_counts(p, s)[-1], (p, s)


class TestArithmetic:
    def test_prime_field_mul_golden(self):
        spec = make_field(7)
        assert mul(spec, [3], [5]) == [1]

    def test_extension_mul_golden(self):
        # t * t^2 = t^3 = t + 1 in GF(8) with modulus x^3 + x + 1
        spec = make_field(2, 3)
        assert mul(spec, [0, 1, 0], [0, 0, 1]) == [1, 1, 0]

    def test_power_zero_exponent(self):
        for p, s in SMALL_FIELDS:
            spec = make_field(p, s)
            x = digits(spec, min(2, spec.q - 1))
            assert power(spec, x, 0) == digits(spec, 1)

    @given(st.sampled_from(SMALL_FIELDS), st.data())
    def test_ring_axioms(self, ps, data):
        spec = make_field(*ps)
        idx = st.integers(min_value=0, max_value=spec.q - 1)
        x = digits(spec, data.draw(idx))
        y = digits(spec, data.draw(idx))
        z = digits(spec, data.draw(idx))
        assert mul(spec, x, y) == mul(spec, y, x)
        assert mul(spec, mul(spec, x, y), z) == mul(spec, x, mul(spec, y, z))
        assert tuple(mul(spec, x, field_add(spec, y, z))) == field_add(
            spec, mul(spec, x, y), mul(spec, x, z)
        )
        assert mul(spec, x, digits(spec, 1)) == x
        assert mul(spec, x, digits(spec, 0)) == digits(spec, 0)
        assert tuple(mul(spec, x, y)) == scalar_mul(spec, tuple(x), tuple(y))

    def test_fermat_exhaustive(self):
        for p, s in SMALL_FIELDS + [(2, 8), (31, 1)]:
            spec = make_field(p, s)
            for i in range(1, spec.q):
                assert power(spec, digits(spec, i), spec.q - 1) == digits(spec, 1)

    def test_wilson_product_prime_fields(self):
        for p in (3, 5, 7, 11, 13, 31, 61, 97):
            spec = make_field(p)
            acc = digits(spec, 1)
            for i in range(1, p):
                acc = mul(spec, acc, [i])
            assert acc == [p - 1]

    @given(st.sampled_from(SMALL_FIELDS), st.data())
    def test_power_agrees_with_repeated_mul(self, ps, data):
        spec = make_field(*ps)
        i = data.draw(st.integers(min_value=0, max_value=spec.q - 1))
        k = data.draw(st.integers(min_value=0, max_value=40))
        x = digits(spec, i)
        acc = digits(spec, 1)
        for _ in range(k):
            acc = mul(spec, acc, x)
        assert power(spec, x, k) == acc
        assert tuple(acc) == scalar_power(spec, tuple(x), k)


class TestIndexing:
    def test_zero_and_one(self):
        for p, s in SMALL_FIELDS:
            spec = make_field(p, s)
            assert digits(spec, 0) == [0] * s
            assert digits(spec, 1) == [1] + [0] * (s - 1)

    def test_digit_golden(self):
        spec = make_field(3, 2)
        assert digits(spec, 5) == [2, 1]

    def test_round_trip(self):
        for p, s in SMALL_FIELDS:
            spec = make_field(p, s)
            for i in range(spec.q):
                x = digits(spec, i)
                assert tuple(x) == oracle_digits(spec, i)
                assert undigits(spec, x) == i


class TestBatches:
    def test_digits_round_trip(self):
        for p, s in SMALL_FIELDS:
            spec = make_field(p, s)
            idx = np.arange(spec.q, dtype=np.int64)
            x = to_digits(spec, idx)
            assert x.shape == (s, spec.q)
            assert x.T.tolist() == [digits(spec, i) for i in range(spec.q)]
            assert from_digits(spec, x).tolist() == idx.tolist()

    def test_batch_arithmetic_matches_scalar_oracle(self):
        # every pair (x, y) of a small field as one batch against the
        # tuple-at-a-time schoolbook arithmetic of the oracle
        for p, s in SMALL_FIELDS + [(2, 8), (47, 2)]:
            spec = make_field(p, s)
            q = spec.q
            xs = np.repeat(np.arange(q, dtype=np.int64), min(q, 16))
            ys = (xs * 7 + np.arange(len(xs), dtype=np.int64)) % q
            got = from_digits(spec, mul(spec, to_digits(spec, xs), to_digits(spec, ys)))
            want = [
                undigits(spec, scalar_mul(spec, oracle_digits(spec, i), oracle_digits(spec, j)))
                for i, j in zip(xs.tolist(), ys.tolist())
            ]
            assert got.tolist() == want, (p, s)
            for k in (0, 1, 2, 5, q - 2, q - 1, 3 * q + 1):
                got = from_digits(spec, power(spec, to_digits(spec, np.arange(q)), k))
                want = [
                    undigits(spec, scalar_power(spec, oracle_digits(spec, i), k))
                    for i in range(q)
                ]
                assert got.tolist() == want, (p, s, k)

    @pytest.mark.parametrize("p, s", [(2039, 2), (2, 22), (3, 13)])
    def test_batch_arithmetic_at_the_int64_edge(self, p, s):
        # the largest field of each shape under FIELD_CAP: the largest p
        # with s = 2, the most fold rows, and p = 3.  Index q - 1 has
        # every digit p - 1, so its products reach the largest row sums
        spec = make_field(p, s)
        q = spec.q
        edge = np.array([0, 1, q - 2, q - 1, CHUNK - 1, CHUNK, CHUNK + 1], dtype=np.int64)
        x = to_digits(spec, edge)
        assert x.T.tolist() == [list(oracle_digits(spec, i)) for i in edge.tolist()]
        assert from_digits(spec, x).tolist() == edge.tolist()
        rng = np.random.default_rng(q)
        xs = np.concatenate([edge, rng.integers(0, q, 2000)])
        ys = np.concatenate([edge[::-1], rng.integers(0, q, 2000)])
        got = from_digits(spec, mul(spec, to_digits(spec, xs), to_digits(spec, ys)))
        want = [
            undigits(spec, scalar_mul(spec, oracle_digits(spec, i), oracle_digits(spec, j)))
            for i, j in zip(xs.tolist(), ys.tolist())
        ]
        assert got.tolist() == want
        few = xs[:40]
        for k in (q - 2, 3 * q + 1):
            got = from_digits(spec, power(spec, to_digits(spec, few), k))
            want = [
                undigits(spec, scalar_power(spec, oracle_digits(spec, i), k))
                for i in few.tolist()
            ]
            assert got.tolist() == want, k

    def test_element_times_batch(self):
        spec = make_field(3, 3)
        xs = to_digits(spec, np.arange(spec.q, dtype=np.int64))
        a = digits(spec, 17)
        want = [
            undigits(spec, scalar_mul(spec, tuple(a), oracle_digits(spec, i)))
            for i in range(spec.q)
        ]
        assert from_digits(spec, mul(spec, a, xs)).tolist() == want
        column = np.array(a, dtype=np.int64)[:, None]
        assert from_digits(spec, mul(spec, column, xs)).tolist() == want

    def test_return_types(self):
        # int rows give a list of Python ints, array rows a list of int64
        # arrays; power(x, 1) hands back x's own rows
        spec = make_field(2, 4)
        xs = list(to_digits(spec, np.arange(spec.q, dtype=np.int64)))
        x = digits(spec, 7)
        for k in (0, 1, 3):
            got = power(spec, x, k)
            assert type(got) is list and len(got) == 4
            assert all(type(c) is int for c in got)
            batch = power(spec, xs, k)
            assert type(batch) is list and len(batch) == 4
            assert all(r.dtype == np.int64 and r.shape == (16,) for r in batch)
        assert power(spec, x, 1) is x and power(spec, xs, 1) is xs
        assert all(type(c) is int for c in mul(spec, x, x))
        scaled = mul(spec, x, xs)
        assert type(scaled) is list
        assert all(r.dtype == np.int64 and r.shape == (16,) for r in scaled)

    def test_negative_exponent_rejected(self):
        spec = make_field(2, 3)
        with pytest.raises(InputRangeError):
            power(spec, digits(spec, 1), -1)
        with pytest.raises(InputRangeError):
            power(spec, to_digits(spec, np.arange(8, dtype=np.int64)), -1)


class TestOrders:
    def test_goldens(self):
        spec = make_field(7)
        assert element_order(spec, (3,)) == 6
        assert element_order(spec, (2,)) == 3
        assert element_order(spec, oracle_digits(spec, 1)) == 1
        assert tuple(element_orders(spec)) == (0, 1, 3, 6, 3, 6, 2)

    def test_zero_rejected(self):
        spec = make_field(7)
        with pytest.raises(ValueError):
            element_order(spec, oracle_digits(spec, 0))
        assert element_orders(spec)[0] == 0

    def test_order_counts_are_phi(self):
        for p, s in SMALL_FIELDS + [(2, 6), (17, 1)]:
            spec = make_field(p, s)
            counts: dict[int, int] = {}
            for o in element_orders(spec)[1:]:
                counts[o] = counts.get(o, 0) + 1
            assert sorted(counts) == divisors(spec.q - 1)
            for d, c in counts.items():
                assert c == euler_phi(d), (p, s, d)

    def test_order_table_matches_scalar_route(self):
        for q, p, s in prime_powers_up_to(1024):
            spec = make_field(p, s)
            table = element_orders(spec)
            assert len(table) == q and table[0] == 0
            want = [element_order(spec, oracle_digits(spec, i)) for i in range(1, q)]
            assert list(table[1:]) == want, (p, s)

    def test_chunk_boundaries(self, monkeypatch):
        for p, s in ((2, 6), (97, 1), (5, 3)):
            spec = make_field(p, s)
            whole = element_orders(spec)
            element_orders.cache_clear()
            monkeypatch.setattr(finite_field, "CHUNK", 7)
            assert element_orders(spec).tolist() == whole.tolist(), (p, s)
            monkeypatch.undo()
            element_orders.cache_clear()
