"""Prime-averaged counts of periodic points and cycles of x -> x**n.

As p runs through primes, the number of exact-period-r points of the
power map on GF(p**s) has a limiting mean value, reached three ways:
the product route `analytic_N` sums the unit-root counts v_s over the
divisors of n**k - 1 as a product over prime powers; the exact class
law `dirichlet_D` sums P(g) * F(g), P(g) the Dirichlet density of the
gcd class g of n**r - 1 (`class_law`) and F(g) the count of a prime in
it; the empirical class histogram of `empirical_mean` is weighted by
the same F.  The first two must agree, and the sweep sums exact
integers, so every reported mean is a true rational; floats never enter.
All three, and `divergence_series`, read the moduli n**k - 1, k | r,
from one table, `numtheory.mobius_moduli`, which also refuses n**r - 1
past 2**63 - 1; n, r, s, t_max and workers are refused by
`numtheory.check_range`, by name, bound and value.

Only `empirical_mean` works on arrays, through numtheory's sieve and
gcd classes, and it imports the process pool only for more than one
worker, so importing this module loads neither numpy nor
concurrent.futures.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import gcd, isqrt, prod

from .errors import InputRangeError, InvariantViolation
from .numtheory import (
    SIEVE_SEGMENT,
    check_positive,
    check_range,
    check_sieve_bound,
    divisors,
    euler_phi,
    factorize,
    gcd_classes,
    mobius_moduli,
    mobius_terms,
    prime_segment,
    primes_up_to,
    v_s,
)

#: Most worker processes a sweep may use (--threads).
MAX_WORKERS = 64

# Most primes per gcd_classes call: a job counts classes this many primes
# at a time, since the table gathers and np.unique over a whole segment
# (about 150000 primes) cost about 20 % more sweep time and 4 MB more RSS.
_CLASS_BLOCK = 20000


def analytic_I(m: int, s: int) -> int:
    """Mean of gcd(m, p**s - 1) over primes: the sum of v_s over divisors of m.

    v_s(s, .) is multiplicative, so that sum is the product, over the
    prime powers p**e exactly dividing m, of v_s(s, p**k) summed over
    k = 0..e; only the prime powers are visited, not the divisors.  For
    s = 1 this is the divisor count of m.
    """
    return prod(sum(v_s(s, p**k) for k in range(e + 1)) for p, e in factorize(m))


def analytic_N(r: int, s: int, n: int) -> int:
    """Limiting mean of the exact-period-r count of x -> x**n on GF(p**s)."""
    terms = mobius_moduli(r, n)
    check_positive(s, "s")
    return sum(mu * (analytic_I(M, s) + 1) for mu, M in terms)


def _class_count(g: int, terms: tuple[tuple[int, int], ...]) -> int:
    """F(g): the period-r count of a prime with gcd(p**s - 1, n**r - 1) = g.

    Exact, since each n**k - 1 of terms = mobius_moduli(r, n) divides n**r - 1.
    """
    return sum(mu * (gcd(g, M) + 1) for mu, M in terms)


def class_law(L: int, s: int) -> dict[int, Fraction]:
    """Per divisor g of L, the Dirichlet density of primes with gcd(p**s - 1, L) = g.

    Primes with l | p**s - 1 have density v_s(l) / phi(l); Moebius
    inversion over the multiples of g dividing L isolates the class g.
    """
    return {
        g: sum(
            Fraction(mu * v_s(s, L // k), euler_phi(L // k))
            for mu, k in mobius_terms(L // g)
        )
        for g in divisors(L)
    }


def dirichlet_D(r: int, s: int, n: int) -> int:
    """Dirichlet mean of the period-r count: sum of P(g) * F(g), g | n**r - 1."""
    terms = mobius_moduli(r, n)
    check_positive(s, "s")
    law = class_law(terms[0][1], s)
    total = sum(P * _class_count(g, terms) for g, P in law.items())
    if total.denominator != 1:
        raise InvariantViolation(f"Dirichlet mean is not integral: {total}")
    return int(total)


@dataclass(frozen=True)
class SweepCheckpoint:
    t: int
    prime_count: int
    total: int  # exact integer sum of the per-prime counts
    mean: Fraction


@dataclass(frozen=True)
class MeanSweepReport:
    r: int
    s: int
    n: int
    t_max: int
    analytic: Fraction
    checkpoints: tuple[SweepCheckpoint, ...]
    final_abs_error: Fraction


def _segment_classes(
    lo: int, hi: int, cps: list[int], base: list[int], s: int, m: int
) -> list[tuple[int | None, int, list[tuple[int, int]]]]:
    """Sieve [lo, hi) and count its primes per class, checkpoint by checkpoint.

    cps is the whole sorted checkpoint list.  One (c, primes, classes)
    entry per checkpoint c in [lo, hi), then (None, primes, classes) for
    the rest of the range: primes is the number of primes since the
    previous entry and classes their gcd_classes(., s, m) pairs, counted
    _CLASS_BLOCK primes at a time and concatenated, so g may repeat.
    """
    primes = prime_segment(lo, hi, base)
    kept = cps[bisect_left(cps, lo) : bisect_left(cps, hi)]
    ends = [*primes.searchsorted(kept, side="right").tolist(), len(primes)]
    out = []
    for cp, a, b in zip([*kept, None], [0, *ends], ends):
        cuts = [*range(a, b, _CLASS_BLOCK), b]
        blocks = (gcd_classes(primes[i:j], s, m) for i, j in zip(cuts, cuts[1:]))
        out.append((cp, b - a, [*chain.from_iterable(blocks)]))
    return out


def default_checkpoints(t_max: int) -> list[int]:
    """Powers of ten up to t_max, then t_max itself."""
    out = []
    t = 10
    while t < t_max:
        out.append(t)
        t *= 10
    out.append(t_max)
    return out


def empirical_mean(
    r: int,
    s: int,
    n: int,
    t_max: int,
    checkpoints: list[int] | None = None,
    workers: int = 1,
) -> MeanSweepReport:
    """Exact prime sweep of the period-r count over GF(p**s) for p <= t_max.

    The count of a prime p is _class_count of its class gcd(p**s - 1, L),
    L = n**r - 1: the F by which dirichlet_D weights the exact class law.

    One job per segment of the grid 0, SIEVE_SEGMENT, 2 * SIEVE_SEGMENT,
    ..., t_max + 1 (_segment_classes): it sieves its range from the base
    primes up to isqrt(t_max) and answers, per checkpoint inside it and
    for the rest of its range, the number of new primes and their counts
    per class g, by lookup tables built once per L from its
    factorization.  Only these counts leave a job.  They are folded in
    grid order, each distinct class evaluated once per sweep in Python
    ints, so the prime count and total at every checkpoint are exact
    sums, identical for any worker count; at most min(workers, number
    of segments) worker processes are started.
    Only checkpoints=None means `default_checkpoints(t_max)`; an empty
    list is refused.
    """
    terms = mobius_moduli(r, n)
    check_positive(s, "s")
    check_range(t_max, "t_max", 2)
    check_sieve_bound(t_max)
    check_range(workers, "workers", 1, MAX_WORKERS)
    L = terms[0][1]
    cps = default_checkpoints(t_max) if checkpoints is None else sorted(set(checkpoints))
    if not cps or any(not 2 <= c <= t_max for c in cps):
        raise InputRangeError("checkpoints must be a nonempty list in [2, t_max]")
    if cps[-1] != t_max:
        cps.append(t_max)
    analytic = Fraction(analytic_N(r, s, n))

    edges = [*range(0, t_max + 1, SIEVE_SEGMENT), t_max + 1]
    base = primes_up_to(isqrt(t_max))
    args = (edges[:-1], edges[1:], repeat(cps), repeat(base), repeat(s), repeat(L))
    if workers > 1 and len(edges) > 2:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(edges) - 1)) as pool:
            jobs = list(pool.map(_segment_classes, *args))
    else:
        jobs = map(_segment_classes, *args)  # one segment at a time

    value = {}  # class g -> per-prime count of its primes
    out = []
    count = total = 0  # primes so far, and the sum of their counts
    for cp, primes, classes in chain.from_iterable(jobs):
        count += primes
        for g, hits in classes:
            if g not in value:
                value[g] = _class_count(g, terms)
            total += hits * value[g]
        if cp is not None:
            out.append(SweepCheckpoint(cp, count, total, Fraction(total, count)))
    final = out[-1]
    return MeanSweepReport(
        r, s, n, t_max, analytic, tuple(out), abs(final.mean - analytic)
    )


@dataclass(frozen=True)
class DivergenceSeries:
    point_sums: tuple[int | Fraction, ...]  # entry r - 1: mean(1) + ... + mean(r)
    cycle_sums: tuple[Fraction, ...]  # entry r - 1: the same sum of mean(k) / k


def divergence_series(mean, n: int, r_max: int) -> DivergenceSeries:
    """Partial sums of mean(r) and mean(r) / r for r = 1..r_max.

    mean(r) is a limiting mean of the exact-period-r count of x -> x**n:
    analytic_N over primes or function_field.dirichlet_D_K over F_q(T).
    Both series grow without bound; r_max is capped, before the first
    term, so n**r - 1 stays within 63 bits.
    """
    mobius_moduli(r_max, n)  # refuses n < 2, r_max < 1 and r_max past the cap
    vals = [mean(r) for r in range(1, r_max + 1)]
    cycles = accumulate(Fraction(val, r) for r, val in enumerate(vals, 1))
    return DivergenceSeries(tuple(accumulate(vals)), tuple(cycles))
