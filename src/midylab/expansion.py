"""Digit-level ground truth for block-sum periodicity.

period_digits produces the minimal repeating digit block of x/N in base b
by exact long division.  midy_direct decides the block-sum divisibility
property by quantifying over every numerator in the unit group, with no
recourse to the structural deciders: for each numerator x the sum of
its d period blocks S equals (b**k - 1) * T / N, where T is the sum of
the d long-division remainders taken every k digits, so b**k - 1 divides
S exactly when N divides T.  That identity is pure long-division
bookkeeping and is cross-checked digit-by-digit in the test suite.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

from .errors import BoundedSearchError, PreconditionError
from .order import order_mod

__all__ = [
    "BlockDecomposition",
    "DIRECT_ORACLE_LIMIT",
    "PERIOD_DIGIT_LIMIT",
    "PeriodExpansion",
    "blocks_and_sum",
    "midy_direct",
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


def _check_expansion_args(x: int, N: int, b: int) -> None:
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
    _check_expansion_args(x, N, b)
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


def _coprime_mask(N: int) -> bytearray:
    mask = bytearray([1]) * N
    mask[0] = 0
    n = N
    p = 2
    while p * p <= n:
        if n % p == 0:
            mask[p::p] = bytearray(len(mask[p::p]))
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        mask[n::n] = bytearray(len(mask[n::n]))
    return mask


def _direct_scan(b: int, N: int, d: int, find_min: bool) -> tuple[bool, int | None]:
    L = order_mod(b, N)
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
    coprime = _coprime_mask(N)
    visited = bytearray(N)
    holds = True
    best: int | None = None
    for x in range(1, N):
        if visited[x] or not coprime[x]:
            continue
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
            if sum(stripe) % N != 0:
                holds = False
                if not find_min:
                    return False, None
                worst = min(stripe)
                if best is None or worst < best:
                    best = worst
    return holds, best


def midy_direct(b: int, N: int, d: int) -> bool:
    """Decide the block-sum property by exhausting every x in the unit group.

    True iff for every x coprime to N with 0 < x < N, the sum of the d
    blocks of the period of x/N is divisible by b**k - 1, k = order/d.
    The order comes from order_mod, so a bad N or b raises what the
    structural deciders raise; an N above DIRECT_ORACLE_LIMIT then raises
    BoundedSearchError before any array is allocated.
    """
    holds, _ = _direct_scan(b, N, d, find_min=False)
    return holds


def smallest_failing_x(b: int, N: int, d: int) -> int | None:
    """Smallest counterexample numerator, or None when the property holds."""
    _, worst = _direct_scan(b, N, d, find_min=True)
    return worst
