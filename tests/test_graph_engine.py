import dataclasses
import json
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodyn import finite_field, graph_engine, monomial, reporting
from monodyn.errors import InputRangeError, InvariantViolation
from monodyn.finite_field import digits, make_field
from monodyn.graph_engine import (
    build,
    check_order_characterization,
    decompose,
    dichotomy_report,
    export_dot,
    is_connected,
    is_mth_power,
    monomial_system,
    orbit_document,
    star_connected,
    star_strongly_connected,
    successor_array,
)
from monodyn.numtheory import check_prime_power, prime_powers_up_to
from monodyn.cli import main
from monodyn.reporting import envelope, render_json

from oracles import digits as oracle_digits
from oracles import (
    exact_periods_by_iteration,
    jsonable,
    line_by_line_dot,
    member_scan_strongly_connected,
    scalar_build,
    scalar_order_check,
    scalar_power,
    scalar_successor,
    undigits,
)


def system(q: int, n: int, a_index: int = 1):
    p, s = check_prime_power(q)
    return monomial_system(make_field(p, s), n, a_index)


class TestSuccessor:
    def test_squaring_mod_7(self):
        succ = successor_array(system(7, 2))
        assert succ.tolist() == [0, 1, 4, 2, 2, 4, 1]

    def test_extension_field_frobenius(self):
        # x -> x**2 on GF(4) is the Frobenius: fixes GF(2), swaps the rest
        succ = successor_array(system(4, 2))
        assert succ[0] == 0 and succ[1] == 1
        assert succ[2] == 3 and succ[3] == 2

    def test_coefficient_shifts_image(self):
        spec = make_field(7)
        plain = successor_array(monomial_system(spec, 3))
        scaled = successor_array(monomial_system(spec, 3, a_index=2))
        for i in range(7):
            assert scaled[i] == plain[i] * 2 % 7

    @given(
        st.sampled_from([(q, n) for q in (5, 7, 8, 9, 11, 16) for n in (2, 3, 4, 5)]),
        st.data(),
    )
    def test_matches_direct_evaluation(self, qn, data):
        q, n = qn
        a_index = data.draw(st.integers(min_value=1, max_value=q - 1))
        sys = system(q, n, a_index)
        spec = sys.field
        succ = successor_array(sys)
        from monodyn.finite_field import mul, power

        i = data.draw(st.integers(min_value=0, max_value=q - 1))
        y = mul(spec, digits(spec, a_index), power(spec, digits(spec, i), n))
        assert succ[i] == undigits(spec, y)

    def test_batched_matches_scalar_oracle(self):
        for q, p, s in prime_powers_up_to(1024):
            spec = make_field(p, s)
            for n in (2, 3, 5, 16):
                for a in sorted({1, q - 1}):
                    got = successor_array(monomial_system(spec, n, a))
                    assert got.tolist() == scalar_successor(spec, n, a), (q, n, a)

    def test_reduced_exponent_matches_scalar_oracle(self):
        # exponents at and past q - 1, where the exponent is reduced
        # modulo q - 1 before any power is formed
        for q, p, s in prime_powers_up_to(128):
            spec = make_field(p, s)
            for n in (q - 1, q, 2 * q - 1, 2**31 - 1):
                if n < 2:
                    continue
                for a in sorted({1, q - 1}):
                    got = successor_array(monomial_system(spec, n, a))
                    assert got.tolist() == scalar_successor(spec, n, a), (q, n, a)

    def test_chunk_boundaries(self, monkeypatch):
        for q, n, a in ((64, 3, 5), (97, 2, 1), (125, 16, 124)):
            sys = system(q, n, a)
            whole = successor_array(sys)
            monkeypatch.setattr(finite_field, "CHUNK", 7)
            assert successor_array(sys).tolist() == whole.tolist(), (q, n, a)
            monkeypatch.undo()

    def test_input_validation(self):
        spec = make_field(5)
        with pytest.raises(InputRangeError):
            monomial_system(spec, 1)
        with pytest.raises(InputRangeError):
            monomial_system(spec, 2, a_index=0)
        with pytest.raises(InputRangeError):
            monomial_system(spec, 2, a_index=5)


class TestDecomposition:
    def test_golden_7_2(self):
        struct = build(system(7, 2))
        assert struct.p_brute == {1: 2, 2: 2}
        assert struct.c_brute == {1: 2, 2: 1}
        assert struct.component_count == 3
        assert struct.periodic_total == 4
        members = sorted(sorted(c.members) for c in struct.cycles)
        assert members == [[0], [1], [2, 4]]
        assert struct.tail_length[3] == 1 and struct.tail_length[5] == 1
        assert struct.tail_length[6] == 1

    def test_golden_9_2(self):
        struct = build(system(9, 2))
        assert struct.p_brute == {1: 2}
        assert struct.component_count == 2

    def test_tail_lengths_decrease_along_edges(self):
        for q, n, a in ((64, 2, 1), (125, 3, 7), (81, 6, 2), (127, 4, 1)):
            struct = build(system(q, n, a))
            cycle_of = {int(m): k for k, c in enumerate(struct.cycles) for m in c.members}
            for i, j in enumerate(struct.successor):
                assert struct.component_id[i] == struct.component_id[j]
                if struct.tail_length[i] > 0:
                    assert struct.tail_length[i] == struct.tail_length[j] + 1
                else:
                    assert struct.tail_length[j] == 0
                    assert cycle_of[i] == cycle_of[j] == struct.component_id[i]

    def test_cycle_membership_is_consistent(self):
        struct = build(system(49, 3, 5))
        for k, c in enumerate(struct.cycles):
            for m in c.members:
                assert struct.component_id[m] == k
                assert struct.tail_length[m] == 0
        on_cycle = sum(c.length for c in struct.cycles)
        assert on_cycle == struct.periodic_total
        assert struct.component_count == len(struct.cycles)

    def test_periods_match_function_iteration(self):
        # independent oracle: compose f with itself and read exact periods
        from collections import Counter

        for q, _, _ in prime_powers_up_to(128):
            for n in (2, 3, 5, 8):
                struct = build(system(q, n))
                by_node = exact_periods_by_iteration(struct.successor)
                assert dict(Counter(by_node.values())) == struct.p_brute, (q, n)

    def test_aggregates_match_closed_forms_for_unit_coefficient(self):
        for q, _, _ in prime_powers_up_to(200):
            for n in (2, 3, 4, 7, 12):
                struct = build(system(q, n))
                prof = monomial.profile(q, n)
                assert struct.p_brute == prof.per_period, (q, n)
                assert struct.c_brute == prof.per_length, (q, n)


def cycle_ids(comp, tail) -> np.ndarray:
    """The oracle's cycle ids: cycle k lies in component k, -1 off-cycle."""
    return np.where(tail == 0, comp, -1)


def as_scalar(comp, tail, cycles) -> tuple:
    """A decomposition in the oracle's shape: lists and member tuples."""
    members = [tuple(c.members.tolist()) for c in cycles]
    return comp.tolist(), cycle_ids(comp, tail).tolist(), tail.tolist(), members


#: Maps that stress the peel depth and the doubling stop rule.
SHAPES = ("random", "one cycle", "long path", "path up", "fixed points", "cycles with trees")


def shaped_map(shape: str, q: int, draws: list[int]) -> list[int]:
    if shape == "random":
        return [d % q for d in draws[:q]] + [0] * max(0, q - len(draws))
    if shape == "one cycle":  # a single q-cycle through the nodes, shuffled
        order = list(range(q))
        random.Random(sum(draws)).shuffle(order)
        succ = [0] * q
        for a, b in zip(order, order[1:] + order[:1]):
            succ[a] = b
        return succ
    if shape == "long path":  # q - 1, q - 2, ..., 1 run into the fixed point 0
        return [max(i - 1, 0) for i in range(q)]
    if shape == "path up":  # 0, 1, ..., q - 2 run into the fixed point q - 1,
        # so the smallest member is the leaf farthest from the cycle
        return [min(i + 1, q - 1) for i in range(q)]
    if shape == "cycles with trees":  # the shuffled first half cut into 2- to
        # 4-cycles, each later node hung from one placed before it, so a
        # component's smallest member need not enter at its cycle's minimum
        order = list(range(q))
        random.Random(sum(draws)).shuffle(order)
        draws = draws + [0] * q
        succ, lo, cut = [0] * q, 0, max(1, q // 2)
        for d in draws:
            if lo == cut:
                break
            ring = order[lo : min(lo + 2 + d % 3, cut)]
            for a, b in zip(ring, ring[1:] + ring[:1]):
                succ[a] = b
            lo += len(ring)
        for j in range(cut, q):
            succ[order[j]] = order[draws[j] % j]
        return succ
    return list(range(q))


class TestArrayDecomposition:
    def test_matches_scalar_walk_on_every_small_field(self):
        # every field of the acceptance range up to 1024, every exponent of
        # the structure sweep, three coefficients each
        rng = random.Random(20240601)
        for q, p, s in prime_powers_up_to(1024):
            spec = make_field(p, s)
            for n in range(2, 17):
                for a in sorted({1, q - 1, rng.randrange(1, q)}):
                    st_ = build(monomial_system(spec, n, a))
                    got = as_scalar(st_.component_id, st_.tail_length, st_.cycles)
                    assert got == scalar_build(st_.successor.tolist()), (q, n, a)
                    assert all(c.length == len(c.members) for c in st_.cycles)

    def test_stores_int32_arrays(self):
        st_ = build(system(97, 3))
        for field in ("successor", "component_id", "tail_length"):
            arr = getattr(st_, field)
            assert arr.dtype == np.int32 and arr.shape == (97,), field

    @pytest.mark.parametrize("intp_nodes", [graph_engine.INTP_NODES, 0])
    def test_cycle_members_view_one_int32_listing(self, monkeypatch, intp_nodes):
        # the cycles are slices of one array, in order, covering every
        # periodic node once; no member is held as a Python int
        monkeypatch.setattr(graph_engine, "INTP_NODES", intp_nodes)
        st_ = build(system(211, 5, 3))
        listing = st_.cycles[0].members.base
        assert listing is not None and listing.dtype == np.int32
        assert len(listing) == st_.periodic_total
        lo = 0
        for c in st_.cycles:
            assert c.members.dtype == np.int32 and c.members.base is listing
            assert c.members.ctypes.data == listing[lo:].ctypes.data, lo
            lo += c.length
        assert lo == len(listing)

    @pytest.mark.parametrize("intp_nodes", [graph_engine.INTP_NODES, 0])
    @given(
        shape=st.sampled_from(SHAPES),
        q=st.integers(min_value=1, max_value=200),
        draws=st.lists(st.integers(min_value=0, max_value=10**6), max_size=200),
    )
    def test_arbitrary_maps(self, intp_nodes, shape, q, draws):
        # intp_nodes 0 sends every graph down the int32 path of large fields
        saved = graph_engine.INTP_NODES
        graph_engine.INTP_NODES = intp_nodes
        try:
            succ = shaped_map(shape, q, draws)
            got = as_scalar(*decompose(np.array(succ, dtype=np.int32)))
        finally:
            graph_engine.INTP_NODES = saved
        assert got == scalar_build(succ), (shape, q)

    def test_random_map_past_intp_nodes(self):
        # the int32 path of large graphs, unpatched: several components
        # with tails hundreds of steps long
        q = 70001
        assert q > graph_engine.INTP_NODES
        succ = np.random.default_rng(70001).integers(0, q, q).astype(np.int32)
        comp, tail, cycles = decompose(succ)
        assert len(cycles) > 1 and tail.max() > 100
        assert as_scalar(comp, tail, cycles) == scalar_build(succ.tolist())


class TestConnectivity:
    def test_zero_always_isolates(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 27):
            for n in (2, 3, 5):
                assert not is_connected(build(system(q, n)))

    def test_star_connected_iff_q_star_is_one(self):
        for q, _, _ in prime_powers_up_to(100):
            for n in (2, 3, 4, 5, 6):
                struct = build(system(q, n))
                assert star_connected(struct) == (monomial.q_star(q, n) == 1), (q, n)

    def test_star_strongly_connected_golden(self):
        # x -> 2 * x**3 on GF(3) swaps 1 and 2: the punctured graph is a 2-cycle
        assert star_strongly_connected(build(system(3, 3, a_index=2)))
        assert not star_strongly_connected(build(system(3, 3)))
        # on GF(2) the single nonzero point is a loop, trivially strong
        assert star_strongly_connected(build(system(2, 2)))

    def test_strongly_connected_matches_member_scan(self):
        # a = 1 and two seeded random coefficients on every q <= 300
        rng = random.Random(300)
        strong = 0
        for q, _, _ in prime_powers_up_to(300):
            for n in range(2, 9):
                for a in (1, rng.randrange(1, q), rng.randrange(1, q)):
                    struct = build(system(q, n, a))
                    members = [c.members for c in struct.cycles]
                    want = member_scan_strongly_connected(q, members)
                    assert star_strongly_connected(struct) == want, (q, n, a)
                    strong += want
        assert strong > 0

    def test_unit_coefficient_never_strong_past_two(self):
        for q, _, _ in prime_powers_up_to(64):
            if q == 2:
                continue
            for n in (2, 3, 4, 5):
                assert not star_strongly_connected(build(system(q, n))), (q, n)


class TestPowerMembership:
    def test_squares_mod_5(self):
        spec = make_field(5)
        squares = {i for i in range(1, 5) if is_mth_power(spec, i, 2)}
        assert squares == {1, 4}

    def test_everything_is_a_first_power(self):
        spec = make_field(3, 2)
        for i in range(1, 9):
            assert is_mth_power(spec, i, 1)

    def test_membership_matches_enumeration(self):
        for q in (7, 8, 9, 11, 13, 16, 25):
            spec = make_field(*check_prime_power(q))
            for m in (2, 3, 4, 5):
                image = {
                    undigits(spec, scalar_power(spec, oracle_digits(spec, i), m))
                    for i in range(1, q)
                }
                for i in range(1, q):
                    assert is_mth_power(spec, i, m) == (i in image), (q, m, i)

    def test_zero_rejected(self):
        spec = make_field(7)
        with pytest.raises(InputRangeError):
            is_mth_power(spec, 0, 2)

    def test_power_index_zero_rejected(self):
        with pytest.raises(InputRangeError):
            is_mth_power(make_field(7), 1, 0)

    def test_index_outside_the_units_rejected(self):
        # digits would wrap q and -1 onto elements silently
        spec = make_field(3, 2)
        for i in (0, spec.q, -1):
            with pytest.raises(InputRangeError):
                is_mth_power(spec, i, 2)

    def test_fixed_point_criterion_matches_successor_scan(self):
        for q in (5, 7, 9, 11, 13, 16):
            for n in (2, 3, 4, 6):
                for a in range(1, q):
                    sys = system(q, n, a)
                    succ = successor_array(sys)
                    scan = any(succ[i] == i for i in range(1, q))
                    assert is_mth_power(sys.field, a, n - 1) == scan, (q, n, a)


class TestOrderCharacterization:
    def test_passes_on_unit_coefficient_sweep(self):
        for q, _, _ in prime_powers_up_to(128):
            for n in (2, 3, 5, 11):
                sys = system(q, n)
                rep = check_order_characterization(sys, build(sys))
                assert rep.passed, (q, n, rep.failure)

    @staticmethod
    def scalar_failure(sys, st_, orders) -> str | None:
        q, n = sys.field.q, sys.n
        cycles = [(c.length, tuple(c.members.tolist())) for c in st_.cycles]
        return scalar_order_check(
            n, monomial.q_star(q, n), list(orders), st_.tail_length.tolist(),
            cycle_ids(st_.component_id, st_.tail_length).tolist(), cycles,
        )

    def corrupted_orders(self, monkeypatch, orders):
        table = np.array(orders, dtype=np.int64)
        monkeypatch.setattr(graph_engine, "element_orders", lambda spec: table)

    def test_agrees_with_scalar_check_on_intact_structures(self):
        for q, _, _ in prime_powers_up_to(128):
            for n in (2, 3, 4):
                sys = system(q, n)
                st_ = build(sys)
                orders = finite_field.element_orders(sys.field)
                assert self.scalar_failure(sys, st_, orders) is None
                assert check_order_characterization(sys, st_).failure is None

    # GF(2^6) under x^5 is a permutation: 13 cycles, no tails
    @pytest.mark.parametrize("q, n", [(31, 2), (64, 5)])
    def test_flipped_tail_reports_like_scalar_check(self, q, n):
        sys = system(q, n)
        st_ = build(sys)
        orders = finite_field.element_orders(sys.field).tolist()
        for node in (1, 2, 3, 5, 30):
            for new in (0, 1):
                tails = st_.tail_length.copy()
                if tails[node] == new:
                    continue
                tails[node] = new
                broken = dataclasses.replace(st_, tail_length=tails)
                want = self.scalar_failure(sys, broken, orders)
                assert want is not None
                assert check_order_characterization(sys, broken).failure == want

    @pytest.mark.parametrize("q, n", [(31, 2), (64, 5)])
    def test_wrong_cycle_length_reports_like_scalar_check(self, q, n):
        sys = system(q, n)
        st_ = build(sys)
        orders = finite_field.element_orders(sys.field).tolist()
        for k, c in enumerate(st_.cycles):
            cycles = list(st_.cycles)
            cycles[k] = dataclasses.replace(c, length=c.length + 1)
            broken = dataclasses.replace(st_, cycles=cycles)
            want = self.scalar_failure(sys, broken, orders)
            got = check_order_characterization(sys, broken).failure
            assert got == want, k
            assert (want is None) == (0 in c.members), k

    def test_swapped_orders_report_like_scalar_check(self, monkeypatch):
        # GF(31), n = 2: q* = 15; points of order 5 and 15 both lie on
        # 4-cycles, so swapping them trips only the one-order-per-cycle rule
        sys = system(31, 2)
        st_ = build(sys)
        orders = finite_field.element_orders(sys.field).tolist()
        i5, i15 = orders.index(5), orders.index(15)
        seen = set()
        for i, j in ((i5, i15), (1, 2), (2, 3), (orders.index(3), i5)):
            swapped = list(orders)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            self.corrupted_orders(monkeypatch, swapped)
            want = self.scalar_failure(sys, st_, swapped)
            got = check_order_characterization(sys, st_).failure
            assert got == want and want is not None, (i, j)
            seen.add(want.split()[0] + (" mix" if "mixes" in want else ""))
        assert seen == {"index", "cycle mix"}

    def test_refuses_other_coefficients(self):
        with pytest.raises(InputRangeError):
            sys = system(7, 2, a_index=3)
            check_order_characterization(sys, build(sys))


class TestDichotomy:
    def test_power_side_golden(self):
        # gcd(3, 4) = 1, so every unit mod 5 is a cube; a=2 qualifies
        sys = system(5, 4, a_index=2)
        rep = dichotomy_report(sys, build(sys))
        assert rep.has_nonzero_fixed is True
        assert rep.formula_match is True
        assert rep.totals_match is True

    def test_nonpower_side_golden(self):
        # a=3 in GF(5), n=3: 3 is not a square mod 5, no nonzero fixed point
        sys = system(5, 3, a_index=3)
        rep = dichotomy_report(sys, build(sys), strict=False)
        assert rep.has_nonzero_fixed is False
        assert rep.formula_match is None
        assert rep.totals_match is True
        struct = build(system(5, 3, a_index=3))
        assert struct.p_brute == {1: 1, 2: 4}

    def test_totals_hold_for_every_coefficient(self):
        # the graph criteria are judged exactly where a*x**n is conjugate
        # to x**n, i.e. a is an (n-1)-th power, and hold there
        sides = set()
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
            for n in (2, 3, 4, 5, 6):
                for a in range(1, q):
                    sys = system(q, n, a)
                    rep = dichotomy_report(sys, build(sys))
                    assert rep.totals_match
                    assert rep.periodic_total == monomial.q_star(q, n) + 1
                    want = True if rep.has_nonzero_fixed else None
                    assert rep.criteria_match is want, (q, n, a)
                    sides.add(want)
        assert sides == {True, None}

    def test_criteria_read_the_existence_criterion(self, monkeypatch):
        # 2 * x**2 on GF(4) is conjugate to x**2, which swaps the two
        # elements outside GF(2); a criterion that denies the 2-cycle fails
        real = monomial.has_r_periodic

        def lying(q, n, r):
            return not real(q, n, r) if (q, n, r) == (4, 2, 2) else real(q, n, r)

        monkeypatch.setattr(monomial, "has_r_periodic", lying)
        sys = system(4, 2, a_index=2)
        rep = dichotomy_report(sys, build(sys), strict=False)
        assert (rep.formula_match, rep.criteria_match) == (True, False)
        with pytest.raises(InvariantViolation, match=r"q=4, n=2, a=2\b"):
            dichotomy_report(sys, build(sys))

    def test_existence_criterion_reuses_the_census_iterates(self):
        # x**2 on GF(19): q* = 9 and r-hat = ord_9(2) = 6.  profile's
        # Moebius sums read m_j at j = 1, 2, 3, 6; has_r_periodic reads m_r
        # and the m_(r/p) for r = 2, 3, 6, all among them, so they all hit
        sys = system(19, 2)
        st = build(sys)
        monomial.m_j.cache_clear()
        rep = dichotomy_report(sys, st)
        assert rep.criteria_match is True
        assert monomial.m_j.cache_info().misses == 4

    def test_strictness(self):
        sys = system(7, 2)
        struct = build(sys)
        # a deliberately corrupted structure must trip strict mode
        broken = type(struct)(
            q=struct.q,
            successor=struct.successor,
            component_id=struct.component_id,
            tail_length=struct.tail_length,
            cycles=struct.cycles,
            p_brute={1: 7},
            c_brute=struct.c_brute,
            component_count=struct.component_count,
            periodic_total=7,
        )
        with pytest.raises(InvariantViolation):
            dichotomy_report(sys, broken)
        rep = dichotomy_report(sys, broken, strict=False)
        assert rep.totals_match is False

    def test_cycle_census_compared_on_its_own(self):
        # GF(7) under x**2 has cycles {1: 2, 2: 1}; a census of four fixed
        # points keeps the periodic total at q* + 1 = 4 but breaks the
        # closed forms, and only c_brute says so
        sys = system(7, 2)
        wrong = dataclasses.replace(build(sys), c_brute={1: 4})
        rep = dichotomy_report(sys, wrong, strict=False)
        assert rep.formula_match is False
        assert rep.totals_match is True
        with pytest.raises(InvariantViolation):
            dichotomy_report(sys, wrong)

    def test_strict_raise_names_the_system(self):
        # 2 * x**3 on GF(7): the report carries no q, n or a, so the message does
        sys = system(7, 3, a_index=2)
        wrong = dataclasses.replace(build(sys), c_brute={2: 2})
        with pytest.raises(InvariantViolation, match=r"q=7, n=3, a=2\b"):
            dichotomy_report(sys, wrong)


class TestExports:
    def test_dot_two_loops(self):
        dot = export_dot(build(system(2, 2)))
        assert "0 -> 0;" in dot and "1 -> 1;" in dot
        assert dot.count("peripheries=2") == 2

    def test_dot_shape(self):
        struct = build(system(7, 2))
        dot = export_dot(struct, header=("hello", "world"))
        assert dot.startswith("digraph state_space {")
        assert dot.endswith("}\n")
        assert "  // hello" in dot and "  // world" in dot
        assert dot.count(" -> ") == 7
        assert dot.count("peripheries=2") == struct.periodic_total

    @pytest.mark.parametrize(
        "q, n, header",
        [(2, 2, ()), (7, 2, ("hello", "world")), (65537, 3, ())],
        ids=["q=2", "q=7 with header", "q=65537"],
    )
    def test_dot_matches_line_by_line_writer(self, q, n, header):
        struct = build(system(q, n))
        want = line_by_line_dot(
            struct.successor.tolist(), struct.tail_length.tolist(), header
        )
        assert export_dot(struct, header) == want

    def test_dot_blocks_cross_boundaries(self, monkeypatch):
        monkeypatch.setattr(reporting, "JOIN_BLOCK", 3)
        for q in (2, 3, 4, 5, 7, 9):
            struct = build(system(q, 2, q - 1))
            want = line_by_line_dot(
                struct.successor.tolist(), struct.tail_length.tolist(), ("h",)
            )
            assert export_dot(struct, ("h",)) == want, q

    @settings(max_examples=150)
    @given(
        shape=st.sampled_from(SHAPES),
        q=st.integers(min_value=1, max_value=200),
        draws=st.lists(st.integers(min_value=0, max_value=10**6), max_size=200),
        block=st.sampled_from([1, 2, 3, 7, 64, 2**16]),
        header=st.lists(st.text(max_size=8), max_size=2).map(tuple),
    )
    def test_dot_of_any_map_matches_line_by_line(self, shape, q, draws, block, header):
        # random maps, long paths and cycles with trees have tails; one
        # cycle and fixed points do not
        succ = np.array(shaped_map(shape, q, draws), dtype=np.int32)
        comp, tail, cycles = decompose(succ)
        struct = graph_engine.OrbitStructure(
            q, succ, comp, tail, cycles, {}, {}, len(cycles), 0
        )
        want = line_by_line_dot(succ.tolist(), tail.tolist(), header)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reporting, "JOIN_BLOCK", block)
            assert export_dot(struct, header) == want, (shape, q, block)

    def test_json_round_trip(self):
        sys = system(9, 2, a_index=4)
        struct = build(sys)
        doc = json.loads(render_json(orbit_document(sys, struct)))
        assert doc["successor"] == struct.successor.tolist()
        assert doc["q"] == 9 and doc["n"] == 2 and doc["a_index"] == 4
        assert doc["aggregates"]["periodic_total"] == struct.periodic_total
        # integer keys survive as their decimal strings
        assert doc["aggregates"]["periodic_by_period"] == {
            str(k): v for k, v in struct.p_brute.items()
        }
        lengths = [c["length"] for c in doc["cycles"]]
        assert sorted(lengths) == sorted(c.length for c in struct.cycles)
        # the printed cycle ids and listings against the scalar walk
        _, cyc, _, cycles = scalar_build(struct.successor.tolist())
        assert doc["node_info"]["cycle_id"] == cyc
        assert [c["members"] for c in doc["cycles"]] == [list(m) for m in cycles]

    def test_json_has_no_floats(self):
        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(k)
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        sys = system(25, 4, a_index=3)
        walk(json.loads(render_json(orbit_document(sys, build(sys)))))

    def test_json_of_int32_structure_matches_stdlib(self, capsys):
        # q > INTP_NODES: the decomposition runs on int32 index arrays
        q, n, a = 65537, 3, 2
        assert q > graph_engine.INTP_NODES
        assert main(["graph", "--q", str(q), "--n", str(n), "--a", str(a)]) == 0
        out = capsys.readouterr().out
        sys = system(q, n, a)
        doc = orbit_document(sys, build(sys))
        assert doc["successor"].dtype == np.int32
        ref = dict(doc, successor=doc["successor"].tolist())
        ref["node_info"] = {k: v.tolist() for k, v in doc["node_info"].items()}
        ref["cycles"] = [
            {"length": c.length, "members": c.members.tolist()} for c in doc["cycles"]
        ]
        config = {"q": q, "n": n, "a": a, "format": "json"}
        expected = json.dumps(jsonable(envelope("graph", config, ref)), indent=2)
        assert out == expected + "\n"
