"""Closed-form cycle structure of x -> x**n on GF(q).

Everything here is integer arithmetic in (q, n); no field element is
ever constructed.  The building block is m_j = gcd(n**j - 1, q - 1),
the number of nonzero points fixed by the j-th iterate.  Moebius
inversion over m_j + 1 yields the exact-period counts, coprime parts
give the total q*(n) + 1 of periodic points, and the multiplicative
order of n mod q*(n) bounds the cycle lengths.  gcds of the form
gcd(n**j - 1, M) reduce n**j modulo M first, so no power tower is
materialized.

These formulas describe the map with coefficient 1; they transfer
verbatim to a * x**n exactly when a is an (n-1)-th power (the graph
engine checks the dichotomy).  q is trusted to be a prime power here;
the command line validates raw inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import InputRangeError, InvariantViolation
from .numtheory import (
    coprime_part,
    divisors,
    factorize,
    mobius_terms,
    multiplicative_order,
)

#: Formula-engine bound on q and n.
FORMULA_CAP = 2**31


def _check(q: int, n: int) -> None:
    if not 2 <= q <= FORMULA_CAP:
        raise InputRangeError(f"q must be in [2, 2**31], got {q}")
    if not 2 <= n <= FORMULA_CAP:
        raise InputRangeError(f"n must be in [2, 2**31], got {n}")


@lru_cache(maxsize=65536)
def m_j(q: int, n: int, j: int) -> int:
    """gcd(n**j - 1, q - 1): nonzero solutions of the j-th iterate fixing x.

    Cached: `profile` and `has_r_periodic` read the same iterates of one
    (q, n).
    """
    _check(q, n)
    if j < 1:
        raise InputRangeError(f"iterate index must be >= 1, got {j}")
    M = q - 1
    t = pow(n, j, M)
    return gcd((t + M - 1) % M, M)


def q_star(q: int, n: int) -> int:
    """Largest divisor of q - 1 coprime to n: the count of nonzero periodic points."""
    _check(q, n)
    return coprime_part(q - 1, n)


def r_hat(q: int, n: int) -> int:
    """Multiplicative order of n modulo q*(n): the maximum cycle length."""
    return multiplicative_order(n, q_star(q, n))


def periodic_count(q: int, n: int, r: int) -> int:
    """Points of exact period r, by Moebius inversion over the m_j + 1.

    Vanishes whenever r does not divide r_hat(q, n).
    """
    _check(q, n)
    if r < 1:
        raise InputRangeError(f"period must be >= 1, got {r}")
    return sum(mu * (m_j(q, n, k) + 1) for mu, k in mobius_terms(r))


def cycle_count(q: int, n: int, r: int) -> int:
    """Number of r-cycles: the exact-period count divided through by r."""
    total = periodic_count(q, n, r)
    if total % r:
        raise InvariantViolation(
            f"period-{r} count {total} for (q={q}, n={n}) is not divisible by {r}"
        )
    return total // r


def has_r_periodic(q: int, n: int, r: int) -> bool:
    """Existence of an r-cycle for r >= 2: m_r divides none of m_1 .. m_{r-1}.

    Since gcd(m_j, m_r) = m_gcd(j, r) and m_d | m_{r/p} | m_r whenever
    d | r/p, this holds iff m_{r/p} != m_r for every prime p | r, and
    only those terms are evaluated.
    """
    _check(q, n)
    if r < 2:
        raise InputRangeError("r must be >= 2; a fixed point (the origin) always exists")
    mr = m_j(q, n, r)
    return all(m_j(q, n, r // p) != mr for p, _ in factorize(r))


def is_fixed_point_system(q: int, n: int) -> bool:
    """Every cycle has length 1, equivalently q*(n) divides n - 1."""
    return (n - 1) % q_star(q, n) == 0


def is_bijective(q: int, n: int) -> bool:
    """The power map permutes GF(q) iff gcd(q - 1, n) = 1."""
    _check(q, n)
    return gcd(q - 1, n) == 1


@dataclass(frozen=True)
class CycleProfile:
    """Complete cycle census of x -> x**n on GF(q)."""

    r_hat: int
    per_period: dict[int, int]  # period -> points of that exact period
    per_length: dict[int, int]  # length -> number of cycles


def profile(q: int, n: int) -> CycleProfile:
    """Census over the divisors of the maximum cycle length.

    Periods with a zero count are dropped, so the keys are exactly the
    cycle lengths that occur.  The total is checked against q*(n) + 1
    before the profile is returned.
    """
    rh = r_hat(q, n)
    per_period: dict[int, int] = {}
    per_length: dict[int, int] = {}
    for r in divisors(rh):
        cycles = cycle_count(q, n, r)
        if cycles < 0:
            raise InvariantViolation(
                f"negative period-{r} count {cycles * r} for (q={q}, n={n})"
            )
        if cycles:
            per_period[r] = cycles * r
            per_length[r] = cycles
    total = sum(per_period.values())
    expected = q_star(q, n) + 1
    if total != expected:
        raise InvariantViolation(
            f"profile total {total} != q*(n) + 1 = {expected} for (q={q}, n={n})"
        )
    return CycleProfile(rh, per_period, per_length)
