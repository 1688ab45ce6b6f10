"""Independent reference implementations used only by tests.

Everything here is written the dumb way on purpose: trial division,
literal definitions, exhaustive scans.  None of it shares code with
the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import numpy as np


def naive_factor(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def naive_is_prime(m: int) -> bool:
    if m < 2:
        return False
    for d in range(2, isqrt(m) + 1):
        if m % d == 0:
            return False
    return True


def lucas_lehmer(e: int) -> bool:
    """Whether the Mersenne number 2**e - 1 is prime, for an odd prime e."""
    m = 2**e - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def naive_divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def naive_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def naive_mobius(m: int) -> int:
    f = naive_factor(m)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def naive_order(a: int, m: int) -> int:
    if m == 1:
        return 1
    x = a % m
    k = 1
    while x != 1:
        x = x * a % m
        k += 1
    return k


def brute_v_s(s: int, l: int) -> int:
    return sum(1 for x in range(l) if pow(x, s, l) == 1 % l)


def unit_root_count(factors: dict[int, int], s: int) -> int:
    """Solutions of x**s = 1 mod l = prod(p**e), from the cyclic factors
    of (Z/l)^*: one of order (p - 1) * p**(e - 1) per odd p, and for p = 2
    one of order 2**(e - 1) when e <= 2, or two of orders 2 and 2**(e - 2)
    when e >= 3.  A cyclic group of order c has gcd(s, c) solutions."""
    count = 1
    for p, e in factors.items():
        if p > 2:
            orders = [(p - 1) * p ** (e - 1)]
        else:
            orders = [2 ** (e - 1)] if e <= 2 else [2, 2 ** (e - 2)]
        for c in orders:
            count *= gcd(s, c)
    return count


def divisor_sum_I(factors: dict[int, int], s: int) -> int:
    """Mean of gcd(m, p**s - 1) over primes, m = prod(p**e): the sum of
    unit_root_count over every divisor of m, one divisor at a time."""
    total = 0
    for exps in product(*(range(e + 1) for e in factors.values())):
        total += unit_root_count({p: k for p, k in zip(factors, exps) if k}, s)
    return total


def naive_primes(t: int) -> list[int]:
    if t < 2:
        return []
    flags = bytearray([1]) * (t + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(t) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(2, t + 1) if flags[i]]


def scalar_sweep_total(r: int, s: int, n: int, primes) -> int:
    """Sum over the primes p of the exact-period-r count of x -> x**n on GF(p**s).

    One prime and one Moebius term at a time: the count is
    sum(mu(d) * (gcd(n**(r/d) - 1, p**s - 1) + 1)) over the divisors d
    of r, with p**s reduced modulo n**(r/d) - 1 by builtin pow.
    """
    terms = [(naive_mobius(d), n ** (r // d) - 1) for d in naive_divisors(r)]
    terms = [(mu, m) for mu, m in terms if mu]
    total = 0
    for p in primes:
        for mu, m in terms:
            total += mu * (gcd((pow(p, s, m) + m - 1) % m, m) + 1)
    return total


def literal_has_r_periodic(q: int, n: int, r: int) -> bool:
    """The paper's r-cycle criterion as stated: with m_j = gcd(n**j - 1,
    q - 1), m_r divides none of m_1 .. m_{r-1}."""
    m = [gcd(n**j - 1, q - 1) for j in range(1, r + 1)]
    return all(mj % m[-1] for mj in m[:-1])


def analytic_C_mean(r: int, s: int, n: int) -> Fraction:
    """Limiting mean of the r-cycle count over primes: N / r, reduced.

    N is the Moebius sum over d | r of the mean of gcd(n**(r/d) - 1,
    p**s - 1) plus one, that mean being the sum of the unit-root counts
    brute_v_s over the divisors of n**(r/d) - 1.
    """
    n_mean = sum(
        naive_mobius(d)
        * (sum(brute_v_s(s, l) for l in naive_divisors(n ** (r // d) - 1)) + 1)
        for d in naive_divisors(r)
    )
    return Fraction(n_mean, r)


def brute_irreducible_counts(p: int, d_max: int) -> dict[int, int]:
    """Count monic irreducibles over GF(p) by sieving out all products.

    Polynomials are encoded as base-p integers (constant digit least
    significant); a monic of degree d occupies [p^d, 2*p^d) only for
    p = 2, so a per-degree window is tracked explicitly.  Products of
    every pair of monic polynomials of positive degree are marked
    reducible with vectorized coefficient convolution.
    """
    weights = p ** np.arange(d_max + 1, dtype=np.int64)

    def monic_coeffs(d: int) -> np.ndarray:
        # rows: all p^d monic polynomials of degree d, columns c_0..c_d
        rows = p**d
        out = np.empty((rows, d + 1), dtype=np.int64)
        for j in range(d):
            out[:, j] = (np.arange(rows) // p**j) % p
        out[:, d] = 1
        return out

    reducible: set[int] = set()
    for a in range(1, d_max // 2 + 1):
        fa = monic_coeffs(a)
        for b in range(a, d_max - a + 1):
            gb = monic_coeffs(b)
            for f in fa:
                prod = np.zeros((gb.shape[0], a + b + 1), dtype=np.int64)
                for j, cf in enumerate(f):
                    if cf:
                        prod[:, j : j + b + 1] += cf * gb
                prod %= p
                enc = prod @ weights[: a + b + 1]
                reducible.update(enc.tolist())
    counts = {}
    for d in range(1, d_max + 1):
        # monic of degree d: leading digit exactly 1 -> enc in [p^d, 2 p^d)
        lo, hi = p**d, 2 * p**d
        counts[d] = sum(1 for e in range(lo, hi) if e not in reducible)
    return counts


def exact_periods_by_iteration(successor: list[int]) -> dict[int, int]:
    """Map node -> exact period for periodic nodes, by composing f.

    Independent of any cycle-grouping logic: period of x is the least
    r >= 1 with f^r(x) = x, found by repeated composition.
    """
    q = len(successor)
    period: dict[int, int] = {}
    cur = list(successor)
    for r in range(1, q + 1):
        for x in range(q):
            if x not in period and cur[x] == x:
                period[x] = r
        cur = [successor[y] for y in cur]
    return period


# ---------------------------------------------------------------------------
# scalar GF(p**s) arithmetic, one element tuple at a time
#
# Only the field's data is read from the package's FieldSpec (p, s, q and
# the modulus); the arithmetic is the plain schoolbook algorithm on
# tuples, independent of the batched arrays in monodyn.finite_field.


def field_add(spec, x: tuple, y: tuple) -> tuple:
    return tuple((a + b) % spec.p for a, b in zip(x, y))


def scalar_mul(spec, x: tuple, y: tuple) -> tuple:
    p, s = spec.p, spec.s
    if s == 1:
        return (x[0] * y[0] % p,)
    mod_low = spec.modulus[:-1]
    prod = [0] * (2 * s - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            prod[i + j] += xi * yj
    # t**s = -(low part of the modulus)
    for k in range(2 * s - 2, s - 1, -1):
        c = prod[k] % p
        for t, mt in enumerate(mod_low):
            prod[k - s + t] -= c * mt
    return tuple(c % p for c in prod[:s])


def scalar_power(spec, x: tuple, k: int) -> tuple:
    if spec.s == 1:
        return (pow(x[0], k, spec.p),)
    out = (1,) + (0,) * (spec.s - 1)
    while k:
        if k & 1:
            out = scalar_mul(spec, out, x)
        k >>= 1
        if k:
            x = scalar_mul(spec, x, x)
    return out


def digits(spec, i: int) -> tuple:
    return tuple((i // spec.p**j) % spec.p for j in range(spec.s))


def undigits(spec, x: tuple) -> int:
    return sum(c * spec.p**j for j, c in enumerate(x))


def scalar_successor(spec, n: int, a_index: int) -> list[int]:
    """Index of a * x**n for every element index x, one element at a time."""
    if spec.s == 1:
        return [a_index * pow(i, n, spec.p) % spec.p for i in range(spec.q)]
    a = digits(spec, a_index)
    return [
        undigits(spec, scalar_mul(spec, a, scalar_power(spec, digits(spec, i), n)))
        for i in range(spec.q)
    ]


def element_order(spec, x: tuple) -> int:
    """Multiplicative order of a nonzero element; always divides q - 1."""
    if not any(x):
        raise ValueError("the zero element has no multiplicative order")
    one = (1,) + (0,) * (spec.s - 1)
    o = spec.q - 1
    for pf in naive_factor(spec.q - 1):
        while o % pf == 0 and scalar_power(spec, x, o // pf) == one:
            o //= pf
    return o


# ---------------------------------------------------------------------------
# scalar decomposition of a functional graph and the scalar order check


def scalar_build(succ: list[int]) -> tuple[list, list, list, list]:
    """(component_id, cycle_id, tail_length, cycles) of a successor list.

    Walks each unresolved node forward, marking the path, until it
    either closes a new cycle or lands on resolved ground; the path is
    then folded back with exact tail lengths.  Three states per node,
    O(q) in total.  Components and cycles are numbered in the order the
    walks started at 0, 1, 2, ... discover them; cycles are member
    tuples listed from the node where the discovering walk entered.
    """
    q = len(succ)
    state = bytearray(q)  # 0 new, 1 on the active path, 2 finished
    comp = [-1] * q
    cyc = [-1] * q
    tail = [0] * q
    cycles: list[tuple[int, ...]] = []
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
            i = path.index(x)
            members = tuple(path[i:])
            cid = len(cycles)
            cycles.append(members)
            for y in members:
                comp[y] = cid
                cyc[y] = cid
                state[y] = 2
            rest = path[:i]
            t = 0
        else:
            # the walk merged into already resolved territory at x
            cid = comp[x]
            rest = path
            t = tail[x]
        for y in reversed(rest):
            t += 1
            comp[y] = cid
            tail[y] = t
            state[y] = 2
    return comp, cyc, tail, cycles


def scalar_order_check(
    n: int,
    qs: int,
    orders: list[int],
    tails: list[int],
    cycle_id: list[int],
    cycles: list[tuple[int, tuple[int, ...]]],
) -> str | None:
    """The failure text of the order characterization, or None.

    Point by point in index order: periodic (tail 0) iff the order
    divides qs, and a periodic point lies on a cycle whose length is the
    order of n modulo its element order; then, cycle by cycle, every
    cycle not through 0 keeps one element order.  cycles holds
    (length, members) pairs as the structure records them.
    """
    for i in range(1, len(orders)):
        o = orders[i]
        periodic = tails[i] == 0
        if periodic != (qs % o == 0):
            return f"index {i}: order {o} vs q* = {qs}, periodic={periodic}"
        if periodic:
            want = naive_order(n, o)
            got = cycles[cycle_id[i]][0]
            if got != want:
                return f"index {i}: cycle length {got}, expected {want} for order {o}"
    for _, members in cycles:
        if 0 in members:
            continue
        if any(orders[j] != orders[members[0]] for j in members):
            return f"cycle through {members[0]} mixes element orders"
    return None


def member_scan_strongly_connected(q: int, cycles: list[tuple[int, ...]]) -> bool:
    """Whether the graph with 0 removed is one cycle, read off the member
    tuples: some cycle has q - 1 members and 0 is not among them."""
    return any(len(members) == q - 1 and 0 not in members for members in cycles)


def line_by_line_dot(successor: list[int], tails: list[int], header=()) -> str:
    """The DOT text of a functional graph, written one line at a time:
    the header comments, a node line per index (two rings when its tail
    length is 0), then an edge line per index."""
    text = "digraph state_space {\n"
    for line in header:
        text += "  // " + line + "\n"
    for i, t in enumerate(tails):
        text += "  " + str(i) + (" [peripheries=2]" if t == 0 else "") + ";\n"
    for i, j in enumerate(successor):
        text += "  " + str(i) + " -> " + str(j) + ";\n"
    return text + "}\n"


# ---------------------------------------------------------------------------
# function-field counts by their literal definitions


def naive_irreducible_count(q: int, d: int) -> int:
    """Monic irreducibles of degree d over GF(q), by the necklace formula."""
    return sum(naive_mobius(d // k) * q**k for k in naive_divisors(d)) // d


def C_r_count(q: int, r: int, t: int) -> int:
    """Primes of F_q(T) of degree <= t whose residue field GF(q**d) has
    an r-cycle of some power map, i.e. r divides q**d - 1."""
    return sum(
        naive_irreducible_count(q, d) for d in range(1, t + 1) if (q**d - 1) % r == 0
    )


# ---------------------------------------------------------------------------
# the JSON mapping, one recursive rule chain
#
# The renderer's reference: json.dumps(jsonable(doc), indent=2) is what
# monodyn.reporting.render_json must write.  Numpy arrays are not
# covered; tests hand them over as lists.


def jsonable(obj):
    """Recursively convert a result object to JSON-safe primitives.

    Dispatch is on the exact type, so a subclass of a mapped type (an
    IntEnum, a namedtuple, an OrderedDict) raises TypeError.
    Fractions become {"num": ..., "den": ...}; dataclasses become
    dicts; dict keys are sorted when all are ints (bools included), then
    stringified with str.
    Floats raise TypeError: exact pipelines have no business
    producing them.
    """
    kind = type(obj)
    if obj is None or kind in (bool, int, str):
        return obj
    if kind is float:
        raise TypeError(f"refusing to serialize float {obj!r}")
    if kind is Fraction:
        return {"num": obj.numerator, "den": obj.denominator}
    if dataclasses.is_dataclass(kind):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if kind is dict:
        keys = sorted(obj) if all(isinstance(k, int) for k in obj) else list(obj)
        return {str(k): jsonable(obj[k]) for k in keys}
    if kind in (list, tuple):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {kind.__name__}")
