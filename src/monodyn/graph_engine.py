"""Brute-force state-space engine for f(x) = a * x**n over GF(q).

Builds the full functional graph as a successor array, decomposes it
into cycles, tails and weakly connected components in one linear
pass, and checks the structural facts that the closed-form engine
predicts.  The vertex 0 always forms its own one-point component,
because a * x**n = 0 forces x = 0; views of the punctured state space
(zero removed) are therefore derived from the same decomposition by
masking index 0 instead of rebuilding.

The decomposition walks each unresolved vertex forward, marking the
path, until it either closes a new cycle or lands on resolved ground;
the path is then folded back with exact tail lengths.  No recursion,
three states per node, O(q) total.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

from . import monomial
from .errors import InputRangeError, InvariantViolation
from .finite_field import (
    Element,
    FieldSpec,
    batches,
    element_index,
    element_orders,
    from_digits,
    index_element,
    mul,
    power,
)
from .numtheory import multiplicative_order


@dataclass(frozen=True)
class DynSystem:
    field: FieldSpec
    n: int
    a: Element


def monomial_system(field: FieldSpec, n: int, a_index: int = 1) -> DynSystem:
    """The dynamical system x -> a * x**n with a given by element index."""
    if n < 2:
        raise InputRangeError(f"exponent must be >= 2, got {n}")
    if not 1 <= a_index < field.q:
        raise InputRangeError(
            f"coefficient index must name a nonzero element, got {a_index}"
        )
    return DynSystem(field, n, index_element(field, a_index))


@dataclass(frozen=True)
class Cycle:
    length: int
    members: tuple[int, ...]


@dataclass
class OrbitStructure:
    """Full decomposition of the state space; immutable once built."""

    q: int
    n: int
    a_index: int
    successor: list[int]
    component_id: list[int]
    cycle_id: list[int]  # -1 off-cycle
    tail_length: list[int]  # 0 exactly on the periodic part
    cycles: list[Cycle]
    p_brute: dict[int, int]  # exact period -> number of points
    c_brute: dict[int, int]  # cycle length -> number of cycles
    component_count: int
    periodic_total: int


def successor_array(sys: DynSystem) -> list[int]:
    """successor[i] = element_index(f(element i)), one batch at a time."""
    spec = sys.field
    out: list[int] = []
    for x in batches(spec):
        y = power(spec, x, sys.n)
        if sys.a != spec.one():
            y = mul(spec, sys.a, y)
        out.extend(from_digits(spec, y).tolist())
    return out


def build(sys: DynSystem) -> OrbitStructure:
    spec = sys.field
    q = spec.q
    succ = successor_array(sys)
    state = bytearray(q)  # 0 new, 1 on the active path, 2 finished
    comp = [-1] * q
    cyc = [-1] * q
    tail = [0] * q
    cycles: list[Cycle] = []
    ncomp = 0
    for start in range(q):
        if state[start]:
            continue
        path: list[int] = []
        x = start
        while not state[x]:
            state[x] = 1
            path.append(x)
            x = succ[x]
        if state[x] == 1:
            # the walk closed a brand new cycle through x
            i = len(path) - 1
            while path[i] != x:
                i -= 1
            members = tuple(path[i:])
            cid = ncomp
            ncomp += 1
            k = len(cycles)
            cycles.append(Cycle(len(members), members))
            for y in members:
                comp[y] = cid
                cyc[y] = k
                state[y] = 2
            rest = path[:i]
            t = 0
        else:
            # the walk merged into already resolved territory at x
            cid = comp[x]
            rest = path
            t = tail[x]
        for j in range(len(rest) - 1, -1, -1):
            y = rest[j]
            t += 1
            comp[y] = cid
            tail[y] = t
            state[y] = 2
    c_brute = dict(sorted(Counter(c.length for c in cycles).items()))
    p_brute = {r: r * m for r, m in c_brute.items()}
    return OrbitStructure(
        q=q,
        n=sys.n,
        a_index=element_index(spec, sys.a),
        successor=succ,
        component_id=comp,
        cycle_id=cyc,
        tail_length=tail,
        cycles=cycles,
        p_brute=p_brute,
        c_brute=c_brute,
        component_count=ncomp,
        periodic_total=sum(p_brute.values()),
    )


def is_connected(st: OrbitStructure) -> bool:
    """Weak connectivity of the full state space."""
    return st.component_count == 1


def star_connected(st: OrbitStructure) -> bool:
    """Weak connectivity with vertex 0 removed (0 is always alone)."""
    return st.component_count == 2


def star_strongly_connected(st: OrbitStructure) -> bool:
    """The punctured state space is strongly connected iff it is one cycle."""
    return any(c.length == st.q - 1 and 0 not in c.members for c in st.cycles)


def is_mth_power(spec: FieldSpec, a: Element, m: int) -> bool:
    """Membership of a in the subgroup of m-th powers of the unit group."""
    if a == spec.zero():
        raise InputRangeError("zero is not in the unit group")
    if m < 1:
        raise InputRangeError(f"power index must be >= 1, got {m}")
    e = (spec.q - 1) // gcd(m, spec.q - 1)
    return power(spec, a, e) == spec.one()


def has_nonzero_fixed(sys: DynSystem) -> bool:
    """Solvability of a * x**(n-1) = 1, i.e. f has a nonzero fixed point."""
    return is_mth_power(sys.field, sys.a, sys.n - 1)


@dataclass(frozen=True)
class OrderCheckReport:
    q: int
    n: int
    checked: int
    passed: bool
    failure: str | None


def check_order_characterization(
    sys: DynSystem, st: OrbitStructure | None = None
) -> OrderCheckReport:
    """Check, for every nonzero point, the order description of the orbit:
    periodic iff the element order divides q*(n); the cycle length is
    the multiplicative order of n modulo that element order; and orders
    are constant along each cycle.

    Only meaningful for coefficient 1, where the periodic points are
    exactly the elements of the subgroup of size q*(n); other
    coefficients shift the periodic part off that subgroup, so the
    check refuses them.
    """
    spec = sys.field
    if sys.a != spec.one():
        raise InputRangeError("order characterization requires coefficient 1")
    if st is None:
        st = build(sys)
    q, n = spec.q, sys.n
    qs = monomial.q_star(q, n)
    orders = element_orders(spec)
    tails = st.tail_length
    cyc_of = st.cycle_id
    cycles = st.cycles
    length_by_order: dict[int, int] = {}
    failure = None
    for i in range(1, q):
        o = orders[i]
        periodic = tails[i] == 0
        if periodic != (qs % o == 0):
            failure = f"index {i}: order {o} vs q* = {qs}, periodic={periodic}"
            break
        if periodic:
            want = length_by_order.get(o)
            if want is None:
                want = 1 if o == 1 else multiplicative_order(n % o, o)
                length_by_order[o] = want
            got = cycles[cyc_of[i]].length
            if got != want:
                failure = f"index {i}: cycle length {got}, expected {want} for order {o}"
                break
    if failure is None:
        for c in cycles:
            if 0 in c.members:
                continue
            base = orders[c.members[0]]
            if any(orders[j] != base for j in c.members):
                failure = f"cycle through {c.members[0]} mixes element orders"
                break
    return OrderCheckReport(q, n, q - 1, failure is None, failure)


@dataclass(frozen=True)
class DichotomyReport:
    q: int
    n: int
    a_index: int
    has_nonzero_fixed: bool  # a is an (n-1)-th power; decides which facts apply
    periodic_total: int
    expected_periodic: int
    totals_match: bool
    formula_match: bool | None  # None when the closed forms do not apply


def dichotomy_report(
    sys: DynSystem, st: OrbitStructure | None = None, strict: bool = True
) -> DichotomyReport:
    """Classify the system by whether a is an (n-1)-th power and check
    what each side guarantees: the closed-form profile transfers
    exactly on the power side, while the periodic-point total
    q*(n) + 1 holds for every nonzero coefficient.

    With strict=True a failed guarantee raises InvariantViolation;
    callers that merely want the verdict pass strict=False.
    """
    spec = sys.field
    if st is None:
        st = build(sys)
    q, n = spec.q, sys.n
    in_image = is_mth_power(spec, sys.a, n - 1)
    expected = monomial.q_star(q, n) + 1
    totals_ok = st.periodic_total == expected
    formula_ok = None
    if in_image:
        prof = monomial.profile(q, n)
        formula_ok = (
            st.p_brute == prof.per_period
            and st.c_brute == prof.per_length
            and st.component_count == prof.total_cycles
        )
    rep = DichotomyReport(
        q, n, st.a_index, in_image, st.periodic_total, expected, totals_ok, formula_ok
    )
    if strict and (not totals_ok or formula_ok is False):
        raise InvariantViolation(f"dichotomy check failed: {rep}")
    return rep


def export_dot(st: OrbitStructure, header: tuple[str, ...] = ()) -> str:
    """GraphViz rendering; nodes on a cycle are drawn with two rings."""
    lines = ["digraph state_space {"]
    for text in header:
        lines.append(f"  // {text}")
    for i in range(st.q):
        mark = " [peripheries=2]" if st.tail_length[i] == 0 else ""
        lines.append(f"  {i}{mark};")
    for i, j in enumerate(st.successor):
        lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def orbit_document(st: OrbitStructure) -> dict:
    """JSON-ready view of the decomposition."""
    return {
        "kind": "orbit_structure",
        "q": st.q,
        "n": st.n,
        "a_index": st.a_index,
        "successor": list(st.successor),
        "cycles": [
            {"length": c.length, "members": list(c.members)} for c in st.cycles
        ],
        "node_info": {
            "component_id": list(st.component_id),
            "cycle_id": list(st.cycle_id),
            "tail_length": list(st.tail_length),
        },
        "aggregates": {
            "periodic_by_period": st.p_brute,
            "cycles_by_length": st.c_brute,
            "component_count": st.component_count,
            "periodic_total": st.periodic_total,
        },
    }

