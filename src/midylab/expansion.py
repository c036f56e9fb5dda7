"""Digit-level ground truth for block-sum periodicity.

period_digits produces the minimal repeating digit block of x/N in base b
by exact long division.  smallest_failing_x decides the block-sum
divisibility property with no recourse to the structural deciders: the
block sums of every numerator follow from the long-division remainders
of 1/N by the identity in its docstring, which reduces the property to
N dividing a geometric sum, tested in one modular power.  The identity
is cross-checked digit-by-digit, numerator by numerator, in the test
suite.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

from .errors import BoundedSearchError, PreconditionError
from .order import ModulusProfile, _check_block_count, modulus_profile

__all__ = [
    "BlockDecomposition",
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


def _failing_x(profile: ModulusProfile, d: int) -> int | None:
    """smallest_failing_x read off a profile of (b, N).

    With c = b**k mod N, S is congruent mod N to C, the sum of c**j for
    j < d.  A block count d > 1 makes k = order/d less than the order,
    so c is not 1, nor 0 since gcd(b, N) = 1 and N > 1.  Then
    (c - 1) * C = c**d - 1 exactly, and N divides C exactly when
    (c - 1) * N divides c**d - 1: one modular power.
    """
    k = _check_block_count(d, profile.order)
    N = profile.modulus
    c = pow(profile.base, k, N)
    return None if pow(c, d, (c - 1) * N) == 1 else 1


def smallest_failing_x(b: int, N: int, d: int) -> int | None:
    """Smallest counterexample numerator, or None when the property holds.

    The property holds iff for every x coprime to N with 0 < x < N, the
    sum of the d blocks of the period of x/N is divisible by b**k - 1,
    k = order/d.  That block sum is (b**k - 1) * T / N, where T sums the
    d long-division remainders of x/N taken every k digits, x * b**(j*k)
    mod N for j < d.  So T == x * S (mod N) with S the sum of b**(j*k)
    for j < d, and since x is a unit mod N, N divides T exactly when N
    divides S, which is T for x = 1.  One numerator decides them all:
    the answer is 1 or None, from one modular power (_failing_x).

    The order comes from modulus_profile and d is checked by their
    _check_block_count, so a bad N, b or d raises what the structural
    deciders raise, and only factoring N bounds the oracle.
    """
    return _failing_x(modulus_profile(b, N), d)
