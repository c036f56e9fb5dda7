"""Digit-level ground truth for block-sum periodicity.

period_digits produces the minimal repeating digit block of x/N in base b
by exact long division.  smallest_failing_x decides the block-sum
divisibility property by quantifying over every numerator in the unit
group, with no recourse to the structural deciders: for each numerator x
the sum of its d period blocks S equals (b**k - 1) * T / N, where T is
the sum of the d long-division remainders taken every k digits, so
b**k - 1 divides S exactly when N divides T.  That identity is pure
long-division bookkeeping and is cross-checked digit-by-digit in the
test suite.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

from .errors import BoundedSearchError, PreconditionError
from .order import modulus_profile

__all__ = [
    "BlockDecomposition",
    "DIRECT_ORACLE_LIMIT",
    "PERIOD_DIGIT_LIMIT",
    "PeriodExpansion",
    "blocks_and_sum",
    "period_digits",
    "smallest_failing_x",
]


class PeriodExpansion(NamedTuple):
    """Minimal repeating digit block of numerator/modulus in the given base.

    Leading zero digits are significant and retained; the block length is
    exactly the multiplicative order of base modulo modulus.
    """

    base: int
    modulus: int
    numerator: int
    digits: tuple[int, ...]


class BlockDecomposition(NamedTuple):
    """A period split into count blocks of length digits each."""

    count: int
    length: int
    blocks: tuple[int, ...]
    block_sum: int


# Longest period period_digits writes out.  Its remainders are distinct
# and below N, so a period has fewer than N digits and only an N above
# the limit can reach it.  Reaching the limit takes about 0.15 s and 8 MB
# of digit list on a 2-vCPU VM (Python 3.11).
PERIOD_DIGIT_LIMIT = 10**6


def period_digits(x: int, N: int, b: int) -> PeriodExpansion:
    """Minimal period of x/N in base b by remainder-driven long division.

    Each step emits digit = (r * b) // N and advances r to (r * b) % N;
    the remainder returns to x after exactly one full period.  A period
    longer than PERIOD_DIGIT_LIMIT raises BoundedSearchError once the
    digit list reaches the limit.
    """
    if b < 2:
        raise PreconditionError("base must be >= 2")
    if not 0 < x < N:
        raise PreconditionError("numerator must satisfy 0 < x < N")
    if math.gcd(N, b) != 1:
        raise PreconditionError(
            f"gcd({N}, {b}) != 1: expansion is not purely periodic"
        )
    if math.gcd(x, N) != 1:
        raise PreconditionError(f"gcd({x}, {N}) != 1")
    digits = []
    r = x
    for _ in repeat(None, PERIOD_DIGIT_LIMIT):
        rb = r * b
        digits.append(rb // N)
        r = rb % N
        if r == x:
            break
    else:
        raise BoundedSearchError(
            f"the period of {x}/{N} in base {b} is longer than "
            f"{PERIOD_DIGIT_LIMIT} digits",
            PERIOD_DIGIT_LIMIT,
        )
    return PeriodExpansion(base=b, modulus=N, numerator=x, digits=tuple(digits))


def blocks_and_sum(e: PeriodExpansion, d: int) -> BlockDecomposition:
    """Split a period into d equal blocks and sum their base-b values."""
    if d < 1 or len(e.digits) % d != 0:
        raise PreconditionError(
            f"block count {d} does not divide period length {len(e.digits)}"
        )
    k = len(e.digits) // d
    blocks = []
    for j in range(d):
        value = 0
        for digit in e.digits[j * k : (j + 1) * k]:
            value = value * e.base + digit
        blocks.append(value)
    return BlockDecomposition(
        count=d, length=k, blocks=tuple(blocks), block_sum=sum(blocks)
    )


# Largest modulus the direct oracle takes.  It allocates two N-byte arrays
# and visits every x < N: about 0.4 s at N = 999983 on a 2-vCPU VM.
DIRECT_ORACLE_LIMIT = 10**6


def _coprime_mask(N: int, primes) -> bytearray:
    """Flags of the x < N coprime to N, given the primes of N."""
    mask = bytearray([1]) * N
    mask[0] = 0
    for p in primes:
        mask[p::p] = bytearray(len(mask[p::p]))
    return mask


def smallest_failing_x(b: int, N: int, d: int) -> int | None:
    """Smallest counterexample numerator, or None when the property holds.

    Walks the unit group orbit by orbit: the property holds iff for every
    x coprime to N with 0 < x < N, the sum of the d blocks of the period
    of x/N is divisible by b**k - 1, k = order/d.  The walk stops once no
    numerator left can be below the best counterexample found.  The order
    and the primes of N come from modulus_profile, so a bad N or b raises
    what the structural deciders raise; an N above DIRECT_ORACLE_LIMIT
    then raises BoundedSearchError before any array is allocated.
    """
    profile = modulus_profile(b, N)
    L = profile.order
    if d <= 1:
        raise PreconditionError("block count d must be > 1")
    if L % d != 0:
        raise PreconditionError(f"d = {d} does not divide the order {L}")
    if N > DIRECT_ORACLE_LIMIT:
        raise BoundedSearchError(
            f"the direct oracle walks every x < N; N = {N} exceeds "
            f"its limit {DIRECT_ORACLE_LIMIT}",
            DIRECT_ORACLE_LIMIT,
        )
    k = L // d
    coprime = _coprime_mask(N, profile.factors.primes())
    visited = bytearray(N)
    best = N
    for x in range(1, N):
        if visited[x] or not coprime[x]:
            continue
        # x is the smallest element of its orbit, and every later orbit
        # lies above x too, so a counterexample below x is the answer.
        if x > best:
            break
        # Walk the base-b remainder orbit of x; it has length exactly L.
        orbit = []
        r = x
        for _ in range(L):
            orbit.append(r)
            visited[r] = 1
            r = r * b % N
        # The d-block sum for the numerator at orbit position i is
        # (b**k - 1)/N times the sum of every k-th remainder from i, so
        # the property holds for it iff N divides that remainder sum.
        for c in range(k):
            stripe = orbit[c::k]
            if sum(stripe) % N:
                best = min(best, *stripe)
                if best == x:
                    return x  # nothing left can be below x
    return None if best == N else best
