"""Input pools of the four workloads and the seeded choice of one op list.

Each workload is a list of slots, and each slot a short list of candidate
ops of about the same cost.  A seed picks one candidate per slot, so two
seeds give different op lists of nearly the same total work, and every op
a seed can pick has a digest recorded in ``expected.json``.

Pools are built here from first principles (own primality test, own
prime-power split), never from the program under test, so a change to
the program cannot change which inputs it is given.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

WORKLOADS = ("gate", "graph", "sweep", "closed")

#: Draw seeds per gate field; prime fields use the first ones.
GATE_DRAW_SEEDS = 4
#: Twisted draws per field, as in the full acceptance sweep.
GATE_DRAWS = 20
#: Exponents of the structure sweep body, as in the full acceptance sweep.
GATE_N_MAX = 16
#: Prime-field slots of the gate workload, one per band of 500..3000.
GATE_PRIME_BANDS = 40
#: Primes of a band a prime-field slot chooses among.
GATE_BAND_PRIMES = 4
#: Extension fields of the gate workload, one slot each: GF(2^10) and
#: GF(47^2).  The acceptance sweeps spend about 69 % of their time on
#: q >= 500 in extension fields; these two against the prime-field
#: slots give about the same split (see README.md).
GATE_EXT_FIELDS = (1024, 2209)
#: Draw seeds an extension-field slot chooses among.
GATE_EXT_DRAW_SEEDS = 64

#: Lower ends of the graph bands; each band spans one percent above it.
#: The decomposition in build chases successors in random order, so its
#: time per node is set by memory latency once the field outgrows the
#: caches: at 2^17 and 2^18 it swung 2-4x from call to call with the
#: load of neighbours sharing the L3 cache, against quartile spreads of
#: 0.09-0.13 up to 2^15 (see README.md).  The bands therefore stay at or
#: below 2^15.
GRAPH_BANDS = (2**13, 2**14, 3 * 2**13, 2**15)
#: Slots per band and format.
GRAPH_SLOTS_PER_BAND = 2

#: (r, s, n) slots of the sweep workload.  A slot groups tuples with the
#: same number of Moebius terms and the same kind of modulus L = n^r - 1
#: (small enough for a per-class count, or far too large for one).
SWEEP_SLOTS = (
    ((1, 1, 3), (1, 1, 5), (1, 1, 7), (1, 1, 4)),
    ((2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3)),
    ((4, 1, 5), (8, 1, 3), (5, 1, 7), (4, 1, 3)),
    ((6, 1, 3), (12, 1, 2), (10, 1, 2), (6, 1, 5)),
    ((20, 1, 3), (14, 1, 5), (15, 1, 4), (22, 1, 3)),
    ((16, 1, 3), (17, 1, 3), (19, 1, 3), (13, 1, 5)),
    ((3, 2, 2), (2, 2, 3), (2, 2, 5), (3, 2, 3)),
    ((16, 2, 3), (13, 2, 5), (19, 2, 3), (17, 2, 3)),
    ((30, 1, 2), (42, 1, 2), (30, 1, 3), (30, 1, 4)),
)
SWEEP_BOUNDS = (9_900_000, 9_950_000, 10_000_000, 10_050_000, 10_100_000)

#: (q, lower end of the degree bound, ord_r(q)) of the oscillation slots.
#: The series recounts every degree divisible by ord_r(q), so candidates
#: of a slot share that order.
OSCILLATE_SLOTS = (
    (2, 1800, 12), (3, 1200, 6), (4, 900, 6), (5, 800, 4), (2, 1200, 12), (3, 900, 6),
    (2, 1500, 10), (3, 1000, 4), (4, 700, 3), (5, 600, 6), (7, 500, 4), (8, 450, 4),
)
#: Slots of the closed workload by kind, in pool order.
CLOSED_SLOTS = {"analyze": 72, "power": 8, "density": 12, "dmean": 12,
                "oscillate": len(OSCILLATE_SLOTS), "identity": 12}

CANDIDATES = 5


@dataclass(frozen=True)
class Op:
    """One unit of timed work.

    kind "gate": args (q, p, s, draw_seed), the structure sweep body and
    the seeded twisted draws for one field.  kind "cli": args is the
    command line without --output.  kind "identity": args (r, s, n),
    analytic_N against dirichlet_D.
    """

    kind: str
    args: tuple

    @property
    def key(self) -> str:
        return f"{self.kind}:" + " ".join(str(a) for a in self.args)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if m < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if m % p == 0:
            return m == p
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, s) with q = p^s, or None."""
    for s in range(q.bit_length(), 0, -1):
        p = round(q ** (1 / s))
        for c in (p - 1, p, p + 1):
            if c >= 2 and c**s == q and is_prime(c):
                return c, s
    return None


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        q = rng.randrange(lo, hi)
        if is_prime(q):
            return q


def _gate_op(q: int, draw: int) -> Op:
    p, s = prime_power(q)
    return Op("gate", (q, p, s, draw))


def _gate_pool() -> list[list[Op]]:
    primes = [q for q in range(500, 3000) if is_prime(q)]
    slots = []
    bands = GATE_PRIME_BANDS
    for k in range(bands):
        lo, hi = 500 + k * 2500 // bands, 500 + (k + 1) * 2500 // bands
        rng = random.Random(f"pool:gate:{k}")
        chosen = sorted(rng.sample([q for q in primes if lo <= q < hi], GATE_BAND_PRIMES))
        slots.append([_gate_op(q, d) for q in chosen for d in range(GATE_DRAW_SEEDS)])
    for q in GATE_EXT_FIELDS:
        slots.append([_gate_op(q, d) for d in _balanced_draw_seeds(q)])
    return slots


def _draw_work(q: int, draw: int) -> int:
    """Square-and-multiply steps of the twisted draws, which set their cost."""
    rng = random.Random(draw * 1_000_003 + q)
    work = 0
    for _ in range(GATE_DRAWS):
        n = rng.randrange(2, GATE_N_MAX + 1)
        rng.randrange(1, q)
        work += n.bit_length() + bin(n).count("1")
    return work


def _balanced_draw_seeds(q: int) -> list[int]:
    """The draw seeds whose draws cost closest to the median.

    Scalar extension-field arithmetic makes a draw's cost grow with the
    exponent's bits; picking seeds of median work keeps the slot's
    candidates within a few percent of each other.
    """
    work = {d: _draw_work(q, d) for d in range(GATE_EXT_DRAW_SEEDS)}
    mid = sorted(work.values())[len(work) // 2]
    return sorted(sorted(work, key=lambda d: (abs(work[d] - mid), d))[:GATE_DRAW_SEEDS])


def _coprime_part(m: int, n: int) -> int:
    """Largest divisor of m coprime to n."""
    g = math.gcd(m, n)
    while g > 1:
        m //= g
        g = math.gcd(m, g)
    return m


def _graph_pool() -> list[list[Op]]:
    """Both formats twice per band; the periodic share q*(n)/(q-1) is fixed per slot.

    The report lists every periodic point, so the share sets the report
    size and the peak memory; fixing it keeps a slot's candidates alike.
    """
    slots = []
    for k, base in enumerate(GRAPH_BANDS):
        for j, fmt in enumerate(("json", "dot") * GRAPH_SLOTS_PER_BAND):
            # permutations (1) or half periodic (2), both for each format
            share_den = 1 + (k + j + j // 2) % 2
            rng = random.Random(f"pool:graph:{base}:{fmt}:{j // 2}")
            cands = []
            while len(cands) < CANDIDATES:
                q = _random_prime(rng, base, base + base // 100)
                n, a = rng.randrange(2, 17), rng.randrange(1, q)
                if _coprime_part(q - 1, n) * share_den == q - 1:
                    cands.append(
                        Op("cli", ("graph", "--q", q, "--n", n, "--a", a, "--format", fmt))
                    )
            slots.append(cands)
    return slots


def _sweep_pool() -> list[list[Op]]:
    slots = []
    for k, tuples in enumerate(SWEEP_SLOTS):
        rng = random.Random(f"pool:sweep:{k}")
        slots.append([
            Op("cli", ("sweep", "--r", r, "--s", s, "--n", n,
                       "--t", rng.choice(SWEEP_BOUNDS), "--format", "csv"))
            for r, s, n in tuples
        ])
    return slots


def _order(q: int, r: int) -> int:
    """Multiplicative order of q modulo r, for r >= 2 coprime to q."""
    x, l = q % r, 1
    while x != 1:
        x = x * q % r
        l += 1
    return l


def _analyze_n(rng: random.Random) -> int:
    return max(2, int(2 ** rng.uniform(1, 31)))


def _closed_pool() -> list[list[Op]]:
    slots = []
    # analyze on primes q of 20 to 31 bits, six slots per bit length
    for k in range(CLOSED_SLOTS["analyze"]):
        bits = 20 + k % 12
        rng = random.Random(f"pool:closed:analyze:{k}")
        slots.append([
            Op("cli", ("analyze", "--q", _random_prime(rng, 2 ** (bits - 1), min(2**bits, 2**31)),
                       "--n", _analyze_n(rng)))
            for _ in range(CANDIDATES)
        ])
    # analyze on proper prime powers between 2^20 and 2^31
    powers = sorted(
        p**s for p in (2, 3, 5, 7, 11, 13) for s in range(2, 32)
        if 2**20 <= p**s <= 2**31
    )
    for k in range(CLOSED_SLOTS["power"]):
        rng = random.Random(f"pool:closed:power:{k}")
        slots.append([
            Op("cli", ("analyze", "--q", rng.choice(powers), "--n", _analyze_n(rng)))
            for _ in range(CANDIDATES)
        ])
    small_q = [q for q in range(2, 65) if prime_power(q)]
    for k in range(CLOSED_SLOTS["density"]):
        rng = random.Random(f"pool:closed:density:{k}")
        cands = []
        for _ in range(CANDIDATES):
            q = rng.choice(small_q)
            r = rng.randrange(2, 2000)
            while math.gcd(r, q) > 1:
                r += 1
            cands.append(Op("cli", ("ffield", "--q", q, "--r", r, "--density")))
        slots.append(cands)
    for k in range(CLOSED_SLOTS["dmean"]):
        rng = random.Random(f"pool:closed:dmean:{k}")
        slots.append([
            Op("cli", ("ffield", "--q", rng.choice(small_q[:12]), "--n", rng.randrange(2, 8),
                       "--r", rng.randrange(1, 9), "--dmean"))
            for _ in range(CANDIDATES)
        ])
    for k, (q, t_lo, order) in enumerate(OSCILLATE_SLOTS):
        rng = random.Random(f"pool:closed:oscillate:{k}")
        fmt = ("csv", "json")[k % 2]
        rs = [r for r in range(2, 5000) if math.gcd(r, q) == 1 and _order(q, r) == order]
        slots.append([
            Op("cli", ("ffield", "--q", q, "--r", r, "--t", t_lo + rng.randrange(0, t_lo // 50),
                       "--oscillate", "--format", fmt))
            for r in sorted(rng.sample(rs, min(CANDIDATES, len(rs))))
        ])
    for k in range(CLOSED_SLOTS["identity"]):
        rng = random.Random(f"pool:closed:identity:{k}")
        slots.append([
            Op("identity", (rng.randrange(1, 7), rng.randrange(1, 5), rng.randrange(2, 11)))
            for _ in range(CANDIDATES)
        ])
    return slots


_POOLS = {
    "gate": _gate_pool,
    "graph": _graph_pool,
    "sweep": _sweep_pool,
    "closed": _closed_pool,
}


@lru_cache(maxsize=None)
def pool(workload: str) -> tuple[tuple[Op, ...], ...]:
    """Every slot of a workload with all its candidates."""
    return tuple(tuple(slot) for slot in _POOLS[workload]())


def _closed_tiny() -> tuple[int, ...]:
    """The first slot of each cheap kind of closed op."""
    starts, at = {}, 0
    for kind, count in CLOSED_SLOTS.items():
        starts[kind] = at
        at += count
    return tuple(starts[k] for k in ("analyze", "power", "density", "dmean", "identity"))


#: Slots kept by a tiny run (cheap ones, used by the self-test).
TINY_SLOTS = {"gate": (0, 1), "graph": (0, 1), "sweep": (0, 1), "closed": _closed_tiny()}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The op list of one run: one candidate per slot, picked by the seed."""
    rng = random.Random(f"inputs:{workload}:{seed}")
    ops = [rng.choice(slot) for slot in pool(workload)]
    if tiny:
        ops = [ops[i] for i in TINY_SLOTS[workload]]
    return ops
