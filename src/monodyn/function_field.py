"""Density of good primes for x -> x**n over the rational function field.

Primes of F_q(T) are monic irreducible polynomials; the residue field
at a prime of degree d is GF(q**d).  A prime supports an r-cycle of
the power map exactly when r divides q**d - 1, which is a condition
on d modulo the order of q mod r.  Dirichlet density is therefore
exactly 1 / ord_r(q), while natural density fails to exist: the
counting ratio oscillates between two explicit subsequence limits,
approaching each along its subsequence, though not monotonically at
small t.  A count that could not be written out (q**d past Python's
int-to-str limit) is refused with ResourceCapError before it is formed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log10

from .errors import InputRangeError, InvariantViolation, ResourceCapError
from .numtheory import (
    check_prime_power,
    coprime_part,
    divisors,
    euler_phi,
    mobius_terms,
    multiplicative_order,
    pow_minus_one,
)


def irreducible_count(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree d over GF(q)."""
    check_prime_power(q)
    if d < 1:
        raise InputRangeError(f"degree must be >= 1, got {d}")
    _check_str_digits(q, d, f"degree {d} gives a count")
    total = sum(mu * q**k for mu, k in mobius_terms(d))
    if total % d:
        raise InvariantViolation(f"necklace sum not divisible by {d}")
    return total // d


def pi_K(q: int, t: int) -> int:
    """Number of monic irreducible polynomials of degree at most t."""
    check_prime_power(q)
    if t < 0:
        raise InputRangeError(f"t must be >= 0, got {t}")
    _check_str_digits(q, t, f"degree bound {t} gives counts")
    return sum(irreducible_count(q, d) for d in range(1, t + 1))


def _check_str_digits(q: int, e: int, what: str) -> None:
    """Refuse numbers up to 2 * q**e that could not be written out.

    Such a number has at most floor(e * log10(q)) + 2 decimal digits;
    when that bound exceeds Python's int-to-str limit
    (sys.get_int_max_str_digits(), 4300 by default) ResourceCapError
    is raised, before any of them is formed.
    """
    digits = int(e * log10(q)) + 2
    # Interpreters before 3.10.7 have no limit and no getter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise ResourceCapError(
            f"{what} of up to {digits} digits over q = {q}, beyond the "
            f"int-to-str limit of {limit} digits"
        )


def _checked_order(q: int, r: int) -> int:
    """ord_r(q), once q is a prime power, r >= 1 and gcd(r, q) = 1."""
    check_prime_power(q)
    if r < 1:
        raise InputRangeError(f"r must be >= 1, got {r}")
    if gcd(r, q) > 1:
        raise InputRangeError(f"r = {r} must be coprime to q = {q}")
    return multiplicative_order(q, r)


def dirichlet_density_S(q: int, r: int) -> Fraction:
    """Dirichlet density of the primes supporting an r-cycle: 1 / ord_r(q)."""
    return Fraction(1, _checked_order(q, r))


def subsequence_limits(q: int, r: int) -> tuple[Fraction, Fraction]:
    """Limits of C_r(t) / pi_K(t) along t = kl and t = kl - 1, l = ord_r(q).

    The two disagree whenever l > 1, so the natural density does not
    exist; their values bracket the oscillation.  Their terms reach
    q**l, so ResourceCapError is raised when l is too large for them
    to be written out.
    """
    l = _checked_order(q, r)
    _check_str_digits(q, l, f"ord_r(q) = {l} gives limits")
    high = Fraction(q ** (l - 1) * (q - 1), q**l - 1)
    low = Fraction(q - 1, q**l - 1)
    return high, low


@dataclass(frozen=True)
class SeriesPoint:
    t: int
    pi_K: int
    c_r: int
    ratio: Fraction
    tag: str  # "A" on the upper subsequence, "B" on the lower, "" otherwise


@dataclass(frozen=True)
class FFDensityReport:
    q: int
    r: int
    l_r: int
    t_max: int
    series: tuple[SeriesPoint, ...]
    limit_A: Fraction
    limit_B: Fraction


def oscillation_experiment(q: int, r: int, t_max: int) -> FFDensityReport:
    """Track C_r(t) / pi_K(t) for t <= t_max against both subsequence limits.

    Counting is incremental, one degree at a time.  The errors need
    not fall monotonically at small t, so the series is returned
    unchecked; the verification battery tests the limits at large t.

    Every count in the series is at most pi_K(t_max) < 2 * q**t_max;
    ResourceCapError is raised before any counting starts when such
    counts could not be written out.
    """
    l = _checked_order(q, r)
    if t_max < l:
        raise InputRangeError(f"t_max must be >= ord_r(q) = {l}")
    _check_str_digits(q, t_max, f"degree bound {t_max} gives counts")
    limit_a, limit_b = subsequence_limits(q, r)
    points = []
    pi_total = 0
    c_total = 0
    for t in range(1, t_max + 1):
        count = irreducible_count(q, t)
        pi_total += count
        if t % l == 0:
            c_total += count
        ratio = Fraction(c_total, pi_total)
        if not 0 <= ratio <= 1:
            raise InvariantViolation(f"counting ratio {ratio} outside [0, 1]")
        tag = ""
        if t % l == 0:
            tag += "A"
        if (t + 1) % l == 0:
            tag += "B"
        points.append(SeriesPoint(t, pi_total, c_total, ratio, tag))
    return FFDensityReport(q, r, l, t_max, tuple(points), limit_a, limit_b)


def dirichlet_mean_solutions(q: int, m: int) -> Fraction:
    """Dirichlet mean over primes of K of the number of solutions of x**m = 1.

    The residue field at a degree-d prime has gcd(m, q**d - 1) such
    solutions; averaging with Dirichlet density gives the sum of
    phi(k) / ord_k(q) over divisors k of the q-coprime part of m.
    """
    check_prime_power(q)
    if m < 1:
        raise InputRangeError(f"m must be >= 1, got {m}")
    m_star = coprime_part(m, q)
    return sum(
        (Fraction(euler_phi(k), multiplicative_order(q, k)) for k in divisors(m_star)),
        Fraction(0),
    )


def dirichlet_D_K(q: int, n: int, r: int) -> Fraction:
    """Dirichlet mean of the exact-period-r count over primes of F_q(T)."""
    check_prime_power(q)
    if n < 2:
        raise InputRangeError(f"n must be >= 2, got {n}")
    if r < 1:
        raise InputRangeError(f"r must be >= 1, got {r}")
    return sum(
        mu * (dirichlet_mean_solutions(q, pow_minus_one(n, k)) + 1)
        for mu, k in mobius_terms(r)
    )
