"""Brute-force state-space engine for f(x) = a * x**n over GF(q).

Builds the full functional graph as an int32 successor array,
decomposes it into cycles, tails and weakly connected components with
whole-array passes, and checks the structural facts that the
closed-form engine predicts.  The vertex 0 always forms its own
one-point component, because a * x**n = 0 forces x = 0; views of the
punctured state space (zero removed) are therefore derived from the
same decomposition by masking index 0 instead of rebuilding.

`decompose` takes any successor array, not only a monomial one:

- peel: nodes of in-degree 0 are removed layer by layer, and the nodes
  never removed are the periodic ones.  Each layer hands on the
  smallest node peeled into it, so every periodic node learns the
  smallest node of the tree that hangs from it, itself included;
- label: f permutes the periodic nodes.  Pointer doubling on that
  permutation carries, for every node x, the least of those tree minima
  over the window x, f(x), ..., f^(w-1)(x) and the steps to it,
  doubling w until every window has the same minimum as the window
  that follows it: about log2 of the longest cycle steps.  The windows
  then tile each cycle, so every node holds its component's smallest
  member, whose rank numbers the component, and the steps to where that
  member enters the cycle;
- unwind: walking the layers backwards gives every node its tail
  length and its component;
- list: each cycle starts where that member enters it, which is the
  order in which walks started at 0, 1, 2, ... discover the cycles.

The loops run over peel layers, doubling steps and cycles, never over
nodes.  No discrete logarithm, Zech table or generator is used: the
graph is read off the field arithmetic alone.  The exports keep to
whole arrays as well: `orbit_document` hands the int32 arrays to
`reporting.render_json` as they are, and `export_dot` writes its node
and edge lines with `reporting._text_rows`, one block of nodes per pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import monomial, reporting
from .errors import InputRangeError, InvariantViolation
from .finite_field import (
    FieldSpec,
    batches,
    digits,
    element_orders,
    from_digits,
    mul,
    power,
)
from .numtheory import check_range, divisors, multiplicative_order


#: Graphs of at most this many nodes are decomposed with intp index
#: arrays, which numpy gathers without converting them first; larger
#: ones use int32, which halves the working memory near FIELD_CAP.
INTP_NODES = 2**16


@dataclass(frozen=True)
class DynSystem:
    field: FieldSpec
    n: int
    a_index: int


def monomial_system(field: FieldSpec, n: int, a_index: int = 1) -> DynSystem:
    """The dynamical system x -> a * x**n with a given by element index."""
    check_range(n, "n", 2)
    check_range(a_index, "a", 1, field.q - 1)
    return DynSystem(field, n, a_index)


@dataclass(frozen=True)
class Cycle:
    length: int
    members: np.ndarray  # int32 view of the one listing of all cycles


@dataclass
class OrbitStructure:
    """Full decomposition of the state space; immutable once built.
    It describes the functional graph alone: the system that made it
    stays with the caller.

    The per-node fields are int32 arrays of length q, indexed by
    element index.
    """

    q: int
    successor: np.ndarray  # index of f(x)
    component_id: np.ndarray  # components numbered by their smallest member
    tail_length: np.ndarray  # steps to the periodic part, 0 exactly on it
    cycles: list[Cycle]  # cycle k lies in component k
    p_brute: dict[int, int]  # exact period -> number of points
    c_brute: dict[int, int]  # cycle length -> number of cycles
    component_count: int
    periodic_total: int


def successor_array(sys: DynSystem) -> np.ndarray:
    """successor[i] = index of f(element i), as one int32 array.

    The exponent is reduced first: e = (n - 1) % (q - 1) + 1 lies in
    [1, q - 1] and is congruent to n modulo q - 1, so x**e = x**n on the
    units (Lagrange in the unit group) and 0**e = 0.
    """
    spec = sys.field
    e = (sys.n - 1) % (spec.q - 1) + 1
    a = digits(spec, sys.a_index)
    out = np.empty(spec.q, dtype=np.int32)
    for lo, x in batches(spec):
        y = power(spec, x, e)
        if sys.a_index != 1:
            y = mul(spec, a, y)
        out[lo : lo + x.shape[1]] = from_digits(spec, y)
    return out


def decompose(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[Cycle]]:
    """Component ids, tail lengths and cycles of a functional graph.

    succ is an integer array with 0 <= succ[i] < len(succ) < 2**31.
    The two per-node results are int32 arrays; the cycles come in
    component order, each listed as the module docstring describes, and
    their members are consecutive slices of one int32 listing.
    """
    q = len(succ)
    itype = np.intp if q <= INTP_NODES else np.int32
    succ = succ.astype(itype, copy=False)
    idx = np.arange(q, dtype=itype)
    slot = np.empty(q, dtype=itype)  # scatter target, reused below

    indeg = np.bincount(succ, minlength=q).astype(itype, copy=False)
    low = idx.copy()  # smallest node peeled into each node so far, itself included
    front = idx[indeg == 0]
    layers = []
    while len(front):
        layers.append(front)
        nxt = succ[front]
        np.minimum.at(low, nxt, low[front])
        np.subtract.at(indeg, nxt, itype(1))
        nxt = nxt[indeg[nxt] == 0]
        # peeled nodes may share a successor: keep the copy that owns it
        own = idx[: len(nxt)]
        slot[nxt] = own
        front = nxt[slot[nxt] == own]
    per = idx[indeg > 0]  # never peeled: the periodic nodes, ascending
    del indeg

    # pointer doubling on the permutation of the periodic nodes, in
    # compact positions 0..m-1; key = (smallest tree node of the window)
    # << 32 | (steps to the periodic node it hangs from).  Distinct trees
    # are disjoint, so one np.minimum merges a window with the next one
    m = len(per)
    slot[per] = idx[:m]
    jump = slot[succ[per]]
    key = low[per].astype(np.int64)
    del low
    key <<= 32
    w = 1
    while True:
        ahead = key[jump]
        ahead += w
        np.minimum(ahead, key, out=ahead)
        # no minimum fell: along the chain x, f^w(x), f^2w(x), ..., which
        # returns to x, the minima are all equal, so they are the cycle's
        if (ahead == key).all():
            break
        key = ahead
        jump = jump[jump]
        w *= 2
    label = (key >> 32).astype(itype)  # smallest member of the component
    dist = (key & 0xFFFFFFFF).astype(itype)  # steps to where it enters
    del jump, ahead, key

    # component numbers are the ranks of the labels: mark, then count
    slot.fill(0)
    slot[label] = 1
    np.add.accumulate(slot, out=slot)
    k = slot[label] - 1  # component of each periodic node
    del label, slot
    sizes = np.bincount(k)

    tail = np.zeros(q, dtype=np.int32)
    comp = np.empty(q, dtype=np.int32)
    comp[per] = k
    for layer in reversed(layers):
        nxt = succ[layer]
        tail[layer] = tail[nxt] + 1
        comp[layer] = comp[nxt]
    del layers

    offsets = np.cumsum(sizes) - sizes
    flat = np.empty(m, dtype=np.int32)
    flat[offsets[k] + -dist % sizes[k]] = per
    cycles = [
        Cycle(size, flat[o : o + size])
        for o, size in zip(offsets.tolist(), sizes.tolist())
    ]
    return comp, tail, cycles


def build(sys: DynSystem) -> OrbitStructure:
    spec = sys.field
    succ = successor_array(sys)
    comp, tail, cycles = decompose(succ)
    c_brute = dict(sorted(Counter(c.length for c in cycles).items()))
    p_brute = {r: r * m for r, m in c_brute.items()}
    return OrbitStructure(
        q=spec.q,
        successor=succ,
        component_id=comp,
        tail_length=tail,
        cycles=cycles,
        p_brute=p_brute,
        c_brute=c_brute,
        component_count=len(cycles),
        periodic_total=sum(p_brute.values()),
    )


def is_connected(st: OrbitStructure) -> bool:
    """Weak connectivity of the full state space."""
    return st.component_count == 1


def star_connected(st: OrbitStructure) -> bool:
    """Weak connectivity with vertex 0 removed (0 is always alone)."""
    return st.component_count == 2


def star_strongly_connected(st: OrbitStructure) -> bool:
    """Whether the nonzero points form one cycle: two components, all periodic."""
    return star_connected(st) and st.periodic_total == st.q


def is_mth_power(spec: FieldSpec, a_index: int, m: int) -> bool:
    """Membership of element a_index in the subgroup of m-th powers of
    the unit group."""
    check_range(a_index, "a", 1, spec.q - 1)
    check_range(m, "m", 1)
    e = (spec.q - 1) // gcd(m, spec.q - 1)
    return power(spec, digits(spec, a_index), e) == digits(spec, 1)


@dataclass(frozen=True)
class OrderCheckReport:
    passed: bool
    failure: str | None


def check_order_characterization(
    sys: DynSystem, st: OrbitStructure
) -> OrderCheckReport:
    """Check the order description of every nonzero orbit: a point of
    element order d is periodic iff d divides q*(n), its cycle then has
    length ord_d(n), and orders are constant along each cycle.

    The first two rules are one comparison with a table, indexed by
    element order, of implied cycle lengths: ord_d(n) for each divisor d
    of q*, 0 ("not periodic") elsewhere.  A point reads its cycle's
    length, or 0 if it has a tail.  The first mismatch fails on
    periodicity if the tail disagrees with the table's 0, else on length.

    Only meaningful for coefficient 1, where the periodic points are
    exactly the elements of the subgroup of size q*(n); other
    coefficients shift the periodic part off that subgroup, so the
    check refuses them.
    """
    spec = sys.field
    if sys.a_index != 1:
        raise InputRangeError("order characterization requires coefficient 1")
    q, n = spec.q, sys.n
    qs = monomial.q_star(q, n)
    all_orders = element_orders(spec)
    comp = st.component_id
    table = np.zeros(q, dtype=np.int64)  # element order -> implied cycle length
    for d in divisors(qs):
        table[d] = multiplicative_order(n, d)
    # index i of the nonzero points sits at position i - 1
    orders = all_orders[1:]
    periodic = st.tail_length[1:] == 0
    want = table[orders]
    lengths = np.array([c.length for c in st.cycles], dtype=np.int64)
    got = np.where(periodic, lengths[comp[1:]], 0)  # cycle k lies in component k
    failure = None
    bad = np.flatnonzero(got != want)
    if len(bad):
        j = int(bad[0])
        i, o = j + 1, int(orders[j])
        if periodic[j] != (want[j] > 0):
            failure = f"index {i}: order {o} vs q* = {qs}, periodic={bool(periodic[j])}"
        else:
            failure = f"index {i}: cycle length {got[j]}, expected {want[j]} for order {o}"
    if failure is None:
        # the cycle through 0 is skipped; every other cycle keeps one order
        on = (st.tail_length == 0) & (comp != comp[0])
        mixed = on & (all_orders != all_orders[st.successor])
        if mixed.any():
            first = st.cycles[int(comp[mixed].min())]
            failure = f"cycle through {first.members[0]} mixes element orders"
    return OrderCheckReport(failure is None, failure)


@dataclass(frozen=True)
class DichotomyReport:
    has_nonzero_fixed: bool  # a is an (n-1)-th power; decides which facts apply
    periodic_total: int
    totals_match: bool
    formula_match: bool | None  # the census; None when the closed forms do not apply
    criteria_match: bool | None  # the graph criteria; None where formula_match is

    @property
    def passed(self) -> bool:
        """The totals hold and no closed form that applies is False."""
        return self.totals_match and False not in (self.formula_match, self.criteria_match)


def dichotomy_report(
    sys: DynSystem, st: OrbitStructure, strict: bool = True
) -> DichotomyReport:
    """Classify the system by whether a is an (n-1)-th power and check
    what each side guarantees.  The periodic total q*(n) + 1 holds for
    every nonzero coefficient.  On the power side, x -> b*x with
    b**(n-1) = 1/a conjugates a*x**n to x**n, so the closed forms of x**n
    transfer: the census (formula_match), and the paper's graph criteria
    (criteria_match): the full graph is never weakly connected, the
    nonzero part is weakly connected iff q* = 1 and strongly connected
    iff q = 2, all cycles are fixed points iff r-hat = 1, and an r-cycle
    exists iff `has_r_periodic` says so.

    This is the one verdict on a built structure, read by the sweeps and
    `analyze --brute`; only `check_order_characterization`, which needs
    the element-order table, compares one with the closed forms apart.
    With strict=True a verdict that has not `passed` raises
    InvariantViolation.
    """
    spec = sys.field
    q, n, a = spec.q, sys.n, sys.a_index
    # 1 lies in every subgroup, so coefficient 1 needs no field power
    in_image = a == 1 or is_mth_power(spec, a, n - 1)
    qs = monomial.q_star(q, n)
    totals_ok = st.periodic_total == qs + 1
    formula_ok = criteria_ok = None
    if in_image:  # build derives p_brute and component_count from c_brute
        prof = monomial.profile(q, n)
        formula_ok = st.c_brute == prof.per_length
        criteria_ok = (
            not is_connected(st)
            and star_connected(st) == (qs == 1)
            and star_strongly_connected(st) == (q == 2)
            and monomial.is_fixed_point_system(q, n)
            == (prof.r_hat == 1)
            == (max(st.c_brute) == 1)
            and all(
                monomial.has_r_periodic(q, n, r) == (r in st.c_brute)
                for r in divisors(prof.r_hat)[1:]
            )
        )
    rep = DichotomyReport(in_image, st.periodic_total, totals_ok, formula_ok, criteria_ok)
    if strict and not rep.passed:
        raise InvariantViolation(
            f"dichotomy check failed for q={q}, n={n}, a={a}: {rep}"
        )
    return rep


def export_dot(st: OrbitStructure, header: tuple[str, ...] = ()) -> str:
    """GraphViz rendering; nodes on a cycle are drawn with two rings.

    Each block of `reporting.JOIN_BLOCK` nodes writes its node lines and
    its edge lines with `reporting._text_rows`, so no more than one
    block of their bytes is held beside the text; all node lines come
    before all edge lines."""
    block = reporting.JOIN_BLOCK
    nodes, edges = [], []
    for lo in range(0, st.q, block):
        ids = np.arange(lo, min(lo + block, st.q), dtype=np.int32)
        ring = (b" [peripheries=2]", st.tail_length[lo : lo + block] == 0)
        succ = st.successor[lo : lo + block]
        nodes.append(reporting._text_rows([b"  ", ids, ring, b";"], "\n"))
        edges.append(reporting._text_rows([b"  ", ids, b" -> ", succ, b";"], "\n"))
    comments = (f"  // {text}" for text in header)
    return "\n".join(["digraph state_space {", *comments, *nodes, *edges, "}\n"])


def orbit_document(sys: DynSystem, st: OrbitStructure) -> dict:
    """JSON-ready view of the decomposition of sys.

    The per-node lists are int32 arrays, handed through as they are:
    `reporting.render_json` writes an integer array with its numpy text
    kernel, so no per-node Python ints are made for them.  cycle_id is
    derived from the tail lengths and component ids, -1 off the cycles.
    """
    return {
        "kind": "orbit_structure",
        "q": st.q,
        "n": sys.n,
        "a_index": sys.a_index,
        "successor": st.successor,
        "cycles": st.cycles,
        "node_info": {
            "component_id": st.component_id,
            "cycle_id": np.where(st.tail_length == 0, st.component_id, -1),
            "tail_length": st.tail_length,
        },
        "aggregates": census(st),
    }


def census(st: OrbitStructure) -> dict:
    """The brute-force counts of a structure, keyed as the reports print them."""
    return {
        "periodic_by_period": st.p_brute,
        "cycles_by_length": st.c_brute,
        "component_count": st.component_count,
        "periodic_total": st.periodic_total,
    }
