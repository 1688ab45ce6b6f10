"""Density of good primes for x -> x**n over the rational function field.

Primes of F_q(T) are monic irreducible polynomials; the residue field
at a prime of degree d is GF(q**d).  A prime supports an r-cycle of
the power map exactly when r divides q**d - 1, which is a condition
on d modulo the order of q mod r.  Dirichlet density is therefore
exactly 1 / ord_r(q), while natural density fails to exist: the
counting ratio oscillates between two explicit subsequence limits,
approaching each along its subsequence, though not monotonically at
small t.  The counts of every degree up to a bound come from one exact
divisor-sieve pass, `irreducible_counts`.  A count that could not be
written out (q**d past Python's int-to-str limit) is refused with
ResourceCapError before any is formed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log10

from .errors import InputRangeError, InvariantViolation, ResourceCapError
from .numtheory import (
    check_positive,
    check_prime_power,
    check_range,
    coprime_part,
    divisors,
    euler_phi,
    mobius_moduli,
    multiplicative_order,
)


def irreducible_counts(q: int, t: int) -> list[int]:
    """Numbers I(1), ..., I(t) of monic irreducible polynomials over GF(q).

    GF(q**d) holds the k roots of every irreducible of degree k | d, so
    d * I(d) = q**d - sum(k * I(k) for k | d, k < d); one pass in
    increasing d adds each d * I(d) to lower[m] at its multiples m.
    """
    check_prime_power(q)
    check_range(t, "t", 0)
    _check_str_digits(q, t, f"degree bound {t} gives counts")
    lower = [0] * (t + 1)
    counts = []
    power = 1
    for d in range(1, t + 1):
        power *= q
        weighted = power - lower[d]
        if weighted % d:
            raise InvariantViolation(f"necklace sum not divisible by {d}")
        for multiple in range(2 * d, t + 1, d):
            lower[multiple] += weighted
        counts.append(weighted // d)
    return counts


def _check_str_digits(q: int, e: int, what: str) -> None:
    """Raise ResourceCapError, before any is formed, when numbers up to
    2 * q**e (at most floor(e * log10(q)) + 2 digits) could pass Python's
    int-to-str limit (sys.get_int_max_str_digits(), 4300 by default)."""
    digits = int(e * log10(q)) + 2
    # Interpreters before 3.10.7 have no limit and no getter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise ResourceCapError(
            f"{what} of up to {digits} digits over q = {q}, beyond the "
            f"int-to-str limit of {limit} digits"
        )


def _checked_order(q: int, r: int) -> int:
    """ord_r(q), once q is a prime power, 1 <= r <= 2**63 - 1 and gcd(r, q) = 1."""
    check_prime_power(q)
    check_positive(r, "r")
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

    One `irreducible_counts` pass gives every degree's count, after its
    checks; running totals are checked, 0 <= C_r <= pi_K, before each
    ratio is formed.  The errors need not fall monotonically at small t,
    so they are left to the verification battery, which tests large t.
    """
    l = _checked_order(q, r)
    if t_max < l:
        raise InputRangeError(f"t_max must be >= ord_r(q) = {l}")
    counts = irreducible_counts(q, t_max)
    limit_a, limit_b = subsequence_limits(q, r)
    points = []
    pi_total = c_total = 0
    for t, count in enumerate(counts, 1):
        pi_total += count
        if t % l == 0:
            c_total += count
        if not 0 <= c_total <= pi_total:
            raise InvariantViolation(
                f"counting ratio {Fraction(c_total, pi_total)} outside [0, 1]"
            )
        tag = "A" * (t % l == 0) + "B" * ((t + 1) % l == 0)
        ratio = Fraction(c_total, pi_total)
        points.append(SeriesPoint(t, pi_total, c_total, ratio, tag))
    return FFDensityReport(q, r, l, t_max, tuple(points), limit_a, limit_b)


def dirichlet_mean_solutions(q: int, m: int) -> Fraction:
    """Dirichlet mean over primes of K of the number of solutions of x**m = 1.

    The residue field at a degree-d prime has gcd(m, q**d - 1) such
    solutions; averaging with Dirichlet density gives the sum of
    phi(k) / ord_k(q) over divisors k of the q-coprime part of m.
    """
    check_prime_power(q)
    m_star = coprime_part(m, q)
    return sum(
        (Fraction(euler_phi(k), multiplicative_order(q, k)) for k in divisors(m_star)),
        Fraction(0),
    )


def dirichlet_D_K(q: int, n: int, r: int) -> Fraction:
    """Dirichlet mean of the exact-period-r count over primes of F_q(T)."""
    check_prime_power(q)
    return sum(
        mu * (dirichlet_mean_solutions(q, M) + 1) for mu, M in mobius_moduli(r, n)
    )
