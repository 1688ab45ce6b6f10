"""Exact integer number theory shared by the other modules.

Everything here is a pure function of its arguments, so concurrent
callers are safe.  `factorize` trial-divides only below 2**10 and
leaves larger factors to Miller-Rabin and Brent's rho; it is cached,
since sweeps hit the same moduli over and over.
Inputs are held to a 63-bit cap, which keeps the contracts portable;
Python integers never overflow, so the cap is a scale limit, not a
safety net.  `check_range` is the one refusal of a bounded integer,
naming input, bound and value (past the int-to-str limit, by its bit
length: `int_text`).  Every mean of the period-r count is a Moebius sum
over the moduli n**k - 1, k | r; `mobius_moduli` is their one table.

Only the prime sieve and the gcd-class counts of a prime sweep
(`prime_segment`, `_gcd_tables`, `gcd_classes`) work on arrays; they
import numpy themselves, so the closed forms built on this module run
without it.  There is one sieve kernel, `prime_segment`, over a range
[lo, hi): `primes_up_to` runs it once over the whole range, and a
prime sweep runs it once per segment, in the worker that counts it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import InputRangeError, ResourceCapError

if TYPE_CHECKING:
    import numpy as np

#: Largest accepted input for factorization-backed functions.
MAX_INPUT = 2**63 - 1

#: Cap for the prime sieve (desk scale).
SIEVE_CAP = 10**8

#: Numbers per sieve segment: its flags, a third of a byte per number,
#: stay in cache, and a prime sweep sieves one segment per job.
SIEVE_SEGMENT = 2**21

# factorize trial-divides below this; Brent's rho splits what is left.
_TRIAL_BOUND = 2**10

# Largest modulus given a gcd lookup table in gcd_classes (512 KB as int64).
_TABLE_CAP = 2**16

# Deterministic Miller-Rabin witness set, valid for every modulus < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def int_text(v: int) -> str:
    """v in decimal, or its bit length, as <N-bit int>, when v is past
    Python's int-to-str limit (sys.get_int_max_str_digits())."""
    try:
        return str(v)
    except ValueError:
        return f"{'-' * (v < 0)}<{v.bit_length()}-bit int>"


def check_range(value: int, name: str, lo: int, hi: int | None = None) -> None:
    """Refuse, by name, bound and value, an int outside [lo, hi] (hi None: no cap)."""
    if lo <= value and (hi is None or value <= hi):
        return
    cap = {MAX_INPUT: "2**63 - 1", 2**31: "2**31"}.get(hi, hi)
    bound = f">= {lo}" if value < lo else f"at most {cap}"
    raise InputRangeError(f"{name} must be {bound}, got {int_text(value)}")


def check_positive(m: int, name: str = "m") -> None:
    """Refuse, by name, an m outside [1, 2**63 - 1]."""
    check_range(m, name, 1, MAX_INPUT)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for m < 2**64."""
    if m < 2:
        return False
    for p in _MR_WITNESSES:
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's rho variant)."""
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise RuntimeError(f"rho failed to split {n}")  # pragma: no cover


@lru_cache(maxsize=65536)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """The (p, e) pairs with m == prod(p**e), p increasing.

    Trial division below _TRIAL_BOUND; then a cofactor is prime when it
    is below d * d, since no prime below d (the first divisor not tried)
    divides it, or when is_prime says so; Brent's rho splits the rest.
    """
    check_positive(m)
    found: dict[int, int] = {}
    v = m
    for d in (2, 3):
        while v % d == 0:
            found[d] = found.get(d, 0) + 1
            v //= d
    d, step = 5, 2
    while d < _TRIAL_BOUND and d * d <= v:
        while v % d == 0:
            found[d] = found.get(d, 0) + 1
            v //= d
        d += step
        step = 6 - step
    pending = [v] if v > 1 else []
    while pending:
        w = pending.pop()
        if w < d * d or is_prime(w):
            found[w] = found.get(w, 0) + 1
        else:
            f = _brent_rho(w)
            pending += [f, w // f]
    return tuple(sorted(found.items()))


def divisors(m: int) -> list[int]:
    """All positive divisors of m in increasing order."""
    divs = [1]
    for p, e in factorize(m):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


@lru_cache(maxsize=65536)
def mobius_terms(r: int) -> tuple[tuple[int, int], ...]:
    """(mu(d), r // d) over the squarefree divisors d of r, d increasing.

    The kernel of every exact-period count: a point has exact period r
    exactly when the r-th iterate fixes it and no r // p-th does, so
    that count is sum(mu * fixed(k) for mu, k in mobius_terms(r)) with
    fixed(k) the number of points the k-th iterate fixes.  Divisors
    with mu(d) = 0 contribute nothing and are left out.

    Cached: a sweep over many (q, n) asks for the same few hundred r
    again and again.
    """
    check_positive(r, "r")
    terms = [(1, 1)]
    for p, _ in factorize(r):
        terms += [(-mu, d * p) for mu, d in terms]
    return tuple((mu, r // d) for mu, d in sorted(terms, key=lambda t: t[1]))


def euler_phi(m: int) -> int:
    """Count of residues mod m coprime to m."""
    out = 1
    for p, e in factorize(m):
        out *= (p - 1) * p ** (e - 1)
    return out


def tau(m: int) -> int:
    """Number of divisors of m."""
    out = 1
    for _, e in factorize(m):
        out *= e + 1
    return out


@lru_cache(maxsize=65536)
def multiplicative_order(a: int, m: int) -> int:
    """Least l >= 1 with a**l = 1 (mod m); requires gcd(a, m) = 1.

    Starts from phi(m) and strips prime factors that are not needed.
    """
    check_positive(a, "a")
    check_positive(m, "modulus")
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        raise InputRangeError(f"order undefined: gcd({a}, {m}) != 1")
    o = euler_phi(m)
    for p, _ in factorize(o):
        while o % p == 0 and pow(a, o // p, m) == 1:
            o //= p
    return o


@lru_cache(maxsize=65536)
def v_s(s: int, l: int) -> int:
    """Number of solutions of x**s = 1 in Z/lZ.

    Multiplicative over the prime powers of l: the unit group mod an
    odd p**e is cyclic of size phi(p**e), giving gcd(s, phi(p**e))
    solutions there, and mod 2**e it splits as Z/2 x Z/2**(e-2) once
    e >= 3.
    """
    check_positive(s, "s")
    check_positive(l, "l")
    count = 1
    for p, e in factorize(l):
        if p == 2:
            if e == 1:
                continue
            part = math.gcd(s, 2)
            if e >= 3:
                part *= math.gcd(s, 2 ** (e - 2))
        else:
            part = math.gcd(s, (p - 1) * p ** (e - 1))
        count *= part
    return count


def coprime_part(m: int, n: int) -> int:
    """Largest divisor of m coprime to n."""
    check_positive(m)
    check_positive(n, "n")
    g = math.gcd(m, n)
    while g > 1:
        m //= g
        g = math.gcd(m, g)
    return m


def max_exponent(n: int) -> int:
    """Largest r with n**r - 1 <= 2**63 - 1 (n >= 2); 0 if there is none."""
    check_range(n, "n", 2)
    r = 0
    while n ** (r + 1) - 1 <= MAX_INPUT:
        r += 1
    return r


def mobius_moduli(r: int, n: int) -> tuple[tuple[int, int], ...]:
    """(mu, n**k - 1) over mobius_terms(r); the first is (1, n**r - 1).

    The one table of the moduli of every mean of the period-r count of
    x -> x**n, which is a Moebius sum over them.  n >= 2 and the cap
    r <= max_exponent(n) are checked before r is factorized or any power
    is formed, so a huge r costs nothing; mobius_terms refuses r < 1.
    """
    cap = max_exponent(n)
    if r > cap:
        limit = f"the largest admissible r is {cap}" if cap else "no r is admissible"
        n = int_text(n)
        raise InputRangeError(f"n**r - 1 exceeds 2**63 - 1; for n = {n} {limit}")
    return tuple((mu, n**k - 1) for mu, k in mobius_terms(r))


def check_sieve_bound(t: int) -> None:
    """Refuse, as a resource cap, a sieve bound past SIEVE_CAP."""
    if t > SIEVE_CAP:
        raise ResourceCapError(f"sieve bound {int_text(t)} exceeds the cap {SIEVE_CAP}")


def prime_segment(lo: int, hi: int, base: list[int]) -> np.ndarray:
    """The primes of [lo, hi), ascending, as an int64 array.

    A sieve of Eratosthenes on the mod-6 wheel: flag j stands for
    3j + 1 | 1, the j-th number coprime to 6 (1, 5, 7, 11, ...), so a
    flag costs a third of a byte per number and a number v coprime to 6
    has flag v // 3.  base lists, ascending, every prime up to
    isqrt(hi - 1) and may hold more; below 25 no base prime is needed.
    Each base prime k >= 5 strikes its multiples k * m from k * k on
    with m coprime to 6: two strides of 2k flags, one for m = 1 and one
    for m = 5 mod 6.  The primes 2 and 3 are added by hand.
    """
    import numpy as np

    check_sieve_bound(hi - 1)
    # first flag whose number is >= lo: lo // 3, unless lo = 6i + 2,
    # whose flag lo // 3 stands for 6i + 1
    j_lo = lo // 3 + (lo % 6 == 2)
    j_hi = hi // 3 + (hi % 6 == 2)
    flags = np.ones(j_hi - j_lo, dtype=bool)
    if j_lo == 0 and len(flags):
        flags[0] = False  # 1 is no prime
    for k in base:
        if k < 5:
            continue
        if k * k >= hi:
            break
        m0 = max(k, -(-lo // k))
        for m in (m0 + (1 - m0) % 6, m0 + (5 - m0) % 6):
            flags[k * m // 3 - j_lo :: 2 * k] = False
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    del flags
    primes += j_lo
    primes *= 3
    primes += 1
    primes |= 1
    small = [p for p in (2, 3) if lo <= p < hi]
    return np.concatenate([small, primes]) if small else primes


def primes_up_to(t: int) -> list[int]:
    """All primes <= t, ascending, as a list of Python ints.

    One prime_segment over [0, t + 1), with the base primes up to
    isqrt(t) from primes_up_to itself; below 25 none are needed.
    """
    check_range(t, "t", 0)
    check_sieve_bound(t)
    base = primes_up_to(math.isqrt(t)) if t >= 25 else []
    return prime_segment(0, t + 1, base).tolist()


@lru_cache(maxsize=8)
def _gcd_tables(m: int) -> tuple[tuple, tuple]:
    """Lookup tables of gcd(i, M), and the prime powers of m they leave out.

    Each prime power l**e of m up to _TABLE_CAP joins, largest first,
    the first table it fits: the table of gcd(i, M), i < M, is tiled
    l**e times and every index divisible by l**k, k = 1..e, multiplied
    by l once more, which makes it the table of gcd(i, M * l**e).  The
    moduli M = len(table) are pairwise coprime, at most _TABLE_CAP, and
    multiply with the larger prime powers, returned as (l, l**e), to m.
    There is always a table: [1], of M = 1, when no prime power of m is
    small enough.
    """
    import numpy as np

    tables = [np.ones(1, dtype=np.int64)]
    big = []
    for l, e in reversed(factorize(m)):
        le = l**e
        if le > _TABLE_CAP:
            big.append((l, le))
            continue
        fits = [i for i, t in enumerate(tables) if len(t) * le <= _TABLE_CAP]
        i = fits[0] if fits else len(tables)
        if not fits:
            tables.append(np.ones(1, dtype=np.int64))
        tab = np.tile(tables[i], le)
        for k in range(1, e + 1):
            tab[:: l**k] *= l
        tables[i] = tab
    return tuple(tables), tuple(big)


def gcd_classes(values: np.ndarray, s: int, m: int) -> list[tuple[int, int]]:
    """(g, count) pairs, g ascending: how many v have gcd(v**s - 1, m) = g.

    values is an int64 array of positive integers and 1 <= m <= 2**63 - 1.
    v**s - 1 is formed directly in int64 when s times the bit length of
    max(values) is at most 63, where that is exact; otherwise v**s is
    reduced mod m by one Python pow per value (x = -1 when m | v**s).

    gcd(x, m) is the product of its parts on coprime factors of m (CRT):
    tab[x - x // M * M] for each table of _gcd_tables, M = len(tab), and
    for each larger prime power one numpy gcd on just the x divisible by
    its prime l (x // l * l == x).  Residues are taken by floor division,
    which numpy runs through libdivide for a scalar divisor (see
    finite_field); it rounds toward -inf, so x = -1 lands on M - 1, and
    x // M * M stays in [-M, x], inside int64.
    """
    import numpy as np

    top = int(values.max(initial=1))
    if s * top.bit_length() <= 63:
        x = values**s - 1
    else:
        x = np.array([pow(v, s, m) for v in values.tolist()], dtype=np.int64) - 1
    tables, big = _gcd_tables(m)
    g, *rest = (tab[x - x // len(tab) * len(tab)] for tab in tables)
    for part in rest:
        g *= part
    for l, le in big:
        hit = np.flatnonzero(x // l * l == x)
        g[hit] *= np.gcd(x[hit], le)
    classes, counts = np.unique(g, return_counts=True)
    return list(zip(classes.tolist(), counts.tolist()))


def check_prime_power(q: int) -> tuple[int, int]:
    """(p, s) with q = p**s; InputRangeError naming q when there is none."""
    if q > MAX_INPUT:
        raise InputRangeError(f"q must be at most 2**63 - 1, got {int_text(q)}")
    f = factorize(q) if q >= 2 else ()
    if len(f) != 1:
        raise InputRangeError(f"q must be a prime power >= 2, got {int_text(q)}")
    return f[0]


def prime_powers_up_to(limit: int) -> list[tuple[int, int, int]]:
    """All (q, p, s) with q = p**s <= limit, ascending in q."""
    out = []
    for p in primes_up_to(limit):
        q, s = p, 1
        while q <= limit:
            out.append((q, p, s))
            q *= p
            s += 1
    out.sort()
    return out
