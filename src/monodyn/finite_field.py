"""Explicit arithmetic in GF(p**s), with one vectorised path for every field.

An element has two forms.  Outside this module it is an integer index
in [0, q): the base-p encoding of its coefficients c0 + c1*t + ... for
a root t of the field's defining polynomial, constant term least
significant, so 0 and 1 keep their indices.  Inside it, an element is
a list of s coefficient rows, constant term first: Python ints in
[0, p) for one element, or equal-length int64 arrays for a batch, where
row i holds coefficient i of every element.  A prime field is the case
s = 1.  Every operation takes the FieldSpec explicitly; there is no
global registry of fields.

`mul` and `power` work on rows, elementwise, and the same loop serves
one element and a batch; an int row times an array row scales the
batch.  `mul` forms the schoolbook product in 2s - 1 rows, each
started from its first term, folds the degrees 2s-2 down to s back
onto the lower rows with t**s = -(low part of the modulus), each
folded row reduced mod p first, and reduces the s rows left mod p at
the end; `power` squares and multiplies.  Both return a fresh list of
s rows, except that `power(spec, x, 1)` returns x's own rows, so
callers never write into a result.  Every reduction mod p, here and in
`to_digits`, is c - c // p * p, in place on fresh rows: numpy divides
an int64 array by a scalar with libdivide's multiply-and-shift but has
no such path for % or divmod, which take two to three times as long.
Int rows take the same expression.  Scalars stay on int rows: numpy's
per-call overhead makes one-element arrays many times slower.  int64
cannot overflow: every product or fold term is below p**2, at most 2s
of them add up in one row (s from the product, fewer than s from the
fold), and q <= 2**22 bounds p**2 by 2**44 and 2s by 44, so every
entry stays below 2**50.

`digits` gives the int rows of one index, `to_digits` and
`from_digits` convert whole index arrays, and `batches` walks a field
in chunks of CHUNK elements, each with its first index; this bounds
the working memory of `element_orders` and the graph engine's
successor array at every field size up to FIELD_CAP.  `element_orders`
needs only the factorization of q - 1 and batched powers: no discrete
logarithm, generator or log table enters the brute-force route.

The defining polynomial is the monic irreducible of degree s whose
coefficient vector encodes the smallest base-p integer, which pins the
construction down deterministically: GF(8) gets t**3 + t + 1 and GF(9)
gets t**2 + 1.  Irreducibility is Rabin's test, run with `power` in
the candidate's own quotient ring.  Conway polynomials, discrete
logarithms, generators and field embeddings are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputRangeError, ResourceCapError
from .numtheory import check_range, factorize, int_text, is_prime

#: Largest field that may be materialized element by element.
FIELD_CAP = 2**22

#: Elements per batch when a whole field is walked; keeps the working
#: arrays to a few MB for every field up to FIELD_CAP.
CHUNK = 2**15


@dataclass(frozen=True)
class FieldSpec:
    p: int
    s: int
    q: int
    modulus: tuple[int, ...] | None  # monic, length s + 1, present iff s > 1


@lru_cache(maxsize=None)
def make_field(p: int, s: int = 1) -> FieldSpec:
    """Construct GF(p**s) with the deterministic defining polynomial."""
    check_range(s, "s", 1)
    if not is_prime(p):
        raise InputRangeError(f"field characteristic must be prime, got {int_text(p)}")
    # p >= 2, so a degree past the cap's bit length is refused unpowered
    if s >= FIELD_CAP.bit_length() or (q := p**s) > FIELD_CAP:
        size = f"{p}**{int_text(s)}"
        raise ResourceCapError(f"field size {size} exceeds the cap {FIELD_CAP}")
    if s == 1:
        return FieldSpec(p, 1, q, None)
    return FieldSpec(p, s, q, _smallest_irreducible(p, s) + (1,))


def _is_irreducible(low: tuple[int, ...], p: int, s: int) -> bool:
    # g = x**s + sum(low[i] x**i) is irreducible iff x**(p**s) = x mod g
    # and gcd(x**(p**(s/r)) - x, g) = 1 for every prime r | s (Rabin).
    # Once x**(p**s) = x holds, g is squarefree and its factors have
    # degrees dividing s, so the ring GF(p)[x] / g is a product of fields
    # GF(p**d), d | s, in which u is coprime to g iff u**(p**s - 1) = 1.
    # Both conditions are thus powers in that ring.
    ring = FieldSpec(p, s, p**s, low + (1,))
    x = [0, 1] + [0] * (s - 2)
    proper = {s // r for r, _ in factorize(s)}
    diffs = []  # x**(p**k) - x for each k in proper
    t = x
    for k in range(1, s + 1):
        t = power(ring, t, p)
        if k in proper:
            diffs.append([t[0], (t[1] - 1) % p] + t[2:])
    one = [1] + [0] * (s - 1)
    return t == x and all(power(ring, d, ring.q - 1) == one for d in diffs)


def _smallest_irreducible(p: int, s: int) -> tuple[int, ...]:
    for v in range(p**s):
        if v % p == 0:
            continue  # constant term 0 means x divides g
        low = tuple((v // p**i) % p for i in range(s))
        if _is_irreducible(low, p, s):
            return low
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


# ---------------------------------------------------------------------------
# element operations

def mul(spec: FieldSpec, x: list, y: list) -> list:
    """x * y on coefficient rows, elementwise; a fresh list of s rows."""
    p, s = spec.p, spec.s
    prod = [x[0] * yj for yj in y]
    for i in range(1, s):
        xi = x[i]
        for j in range(s - 1):
            prod[i + j] += xi * y[j]
        prod.append(xi * y[s - 1])
    # fold degrees >= s back down via t**s = -(low part of the modulus)
    fold = [(t, m) for t, m in enumerate(spec.modulus[:-1]) if m] if spec.modulus else []
    for k in range(2 * s - 2, s - 1, -1):
        c = prod[k]
        c -= c // p * p
        for t, m in fold:
            prod[k - s + t] -= m * c
    for k in range(s):
        prod[k] -= prod[k] // p * p
    return prod[:s]


def power(spec: FieldSpec, x: list, k: int) -> list:
    """x**k on coefficient rows, k >= 0; for k = 1, x's own rows."""
    if k < 0:
        raise InputRangeError("negative exponents are not supported")
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(spec, out, x)
        k >>= 1
        if k:
            x = mul(spec, x, x)
    if out is None:  # k == 0: the one of the field, shaped like x
        out = [c * 0 for c in x]
        out[0] = out[0] + 1
    return out


def digits(spec: FieldSpec, i: int) -> list[int]:
    """The coefficient rows of the element with index i, as Python ints."""
    return [(i // spec.p**j) % spec.p for j in range(spec.s)]


def to_digits(spec: FieldSpec, idx: np.ndarray) -> np.ndarray:
    """The (s, N) batch of the elements with the given indices."""
    p = spec.p
    out = np.empty((spec.s, len(idx)), dtype=np.int64)
    for i in range(spec.s):
        quot = idx // p
        np.subtract(idx, quot * p, out=out[i])
        idx = quot
    return out


def from_digits(spec: FieldSpec, x) -> np.ndarray:
    """Indices of the elements given as s rows of equal-length arrays."""
    idx = x[-1].copy()
    for row in x[-2::-1]:
        idx *= spec.p
        idx += row
    return idx


def batches(spec: FieldSpec, start: int = 0):
    """(lo, batch) per CHUNK of indices start..q-1; lo is the batch's first index."""
    for lo in range(start, spec.q, CHUNK):
        hi = min(lo + CHUNK, spec.q)
        yield lo, to_digits(spec, np.arange(lo, hi, dtype=np.int64))


@lru_cache(maxsize=1)
def element_orders(spec: FieldSpec) -> np.ndarray:
    """Orders of all elements, indexed by element index; slot 0 holds 0.

    For each prime power l**e exactly dividing q - 1, y = x**((q-1)/l**e)
    has order the l-part of the order of x, which is l**j for the number
    j of steps y, y**l, y**(l**2), ... that are not yet 1.  The table is
    one int64 array, read-only because it is cached.  Callers take one
    field at a time, so only the last table is kept: near the cap a
    table holds about 4M entries.
    """
    q = spec.q
    factors = factorize(q - 1)
    out = np.zeros(q, dtype=np.int64)
    for lo, x in batches(spec, 1):
        orders = np.ones(x.shape[1], dtype=np.int64)
        for l, e in factors:
            y = power(spec, x, (q - 1) // l**e)
            for j in range(e):
                if j:
                    y = power(spec, y, l)
                orders[from_digits(spec, y) != 1] *= l
        out[lo : lo + len(orders)] = orders
    out.flags.writeable = False
    return out
