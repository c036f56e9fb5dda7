"""Multiplicative orders: |b| mod N via per-prime-power lifting and lcm.

The order modulo an odd prime power p**t is derived from the order modulo
p: it stays equal to it while t <= m, where m is the p-adic valuation of
b**ord - 1, and picks up a factor p**(t-m) beyond that.  Orders modulo
powers of 2 do not follow that rule and are computed by a direct doubling
scan instead.

modulus_profile gathers everything the deciders read about one modulus
(its factorization, the order, and the orders at each prime and prime
power) in a single pass, so that deciding many block counts for the same
N computes none of it twice.  The order mod p comes out of stripping
primes off p - 1, which leaves its factorization too, _order_exponents
merges those into the order's factorization, and _order_divisors expands
that into the order's divisors, so the order itself is never factored.
order_mod is the order field of that profile, so there is one route to a
modulus's order data.

A factorization is checked once, where it enters: building a
Factorization checks nothing, and modulus_profile tests the shape, the
product and the primes of a caller's n_factors and trusts the ones
arith.factor found.  _profile, the builder behind it, trusts its factors and
is also what the CLI scan calls with the factors of its chunk sieve.  The
module keeps no state between calls: _profile adds the orders mod primes
it computes to a table its caller passes, which modulus_profile makes
anew for each modulus and a scan keeps across its rows, up to a fixed size.
_check_block_count is the one check of a block count d against the
order, for the deciders and the direct oracle alike.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import arith
from .errors import BoundedSearchError, DomainError, PreconditionError

__all__ = [
    "DIVISOR_COUNT_LIMIT",
    "ModulusProfile",
    "lift_valuation",
    "modulus_profile",
    "order_mod",
    "order_mod_naive",
]


class ModulusProfile(NamedTuple):
    """Order data of base modulo modulus, computed once per modulus.

    per_prime lists (p, t, order mod p**t, order mod p) for each p**t in
    factors, in ascending order of p; order is their lcm.  order_factors
    holds, for each per_prime entry, the factorization of the order mod p
    as (q1, e1, q2, e2, ...), q ascending (() at p = 2).  Like
    every record of the package it is a named tuple (Factorization is a
    tuple of its pairs): every decider and scan row builds one, and named
    tuples are cheap to build and to import.
    """

    base: int
    modulus: int
    factors: arith.Factorization
    order: int
    per_prime: tuple[tuple[int, int, int, int], ...]
    order_factors: tuple[tuple[int, ...], ...]


def _order_mod_prime(b: int, p: int) -> tuple[int, ...]:
    """(order, q1, e1, q2, e2, ...): the order of b mod p, then its
    factorization, q ascending.

    b already reduced mod p, p prime, b != 0.  Starts from the group
    exponent p - 1 and strips prime factors while the power stays 1; the
    exponents left over are the order's factorization.
    """
    order = p - 1
    kept = []
    for q, e in arith.factor(p - 1):
        while e and pow(b, order // q, p) == 1:
            order //= q
            e -= 1
        if e:
            kept += (q, e)
    return (order, *kept)


def lift_valuation(b: int, p: int) -> int:
    """m = valuation_p(b**|b|_p - 1) for prime p, p not dividing b, b >= 2.

    Computed without materializing the power: b must not be reduced mod p
    first, since the valuation lives above the first power of p.
    """
    if b < 2:
        raise DomainError("lift valuation undefined for base < 2")
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if b % p == 0:
        raise PreconditionError(f"base {b} is divisible by {p}")
    return _lift_exponent(b, p, _order_mod_prime(b % p, p)[0])


def _lift_exponent(b: int, p: int, op: int) -> int:
    """Largest m with b**op == 1 (mod p**m), op the order of b mod p."""
    m = 1
    while pow(b, op, p ** (m + 1)) == 1:
        m += 1
    return m


def _order_mod_two_power(b: int, t: int) -> int:
    # Orders mod 2**t are powers of two; scan by repeated squaring.
    mod = 1 << t
    r = b % mod
    order = 1
    for _ in range(t + 1):
        if r == 1:
            return order
        r = r * r % mod
        order *= 2
    raise PreconditionError("base must be odd for orders modulo powers of 2")


def _profile(
    b: int, N: int, factors: arith.Factorization, orders: dict[int, tuple[int, ...]]
) -> ModulusProfile:
    """modulus_profile without its checks: factors must be N's factorization
    into primes, and gcd(b, N) must be 1.

    orders maps odd primes p to _order_mod_prime(b % p, p) for this b; the
    entries it lacks are computed and added.  Odd p lifts the order mod p
    to p**t; p = 2 is routed to the direct doubling scan.
    """
    per_prime = []
    order_factors = []
    order = 1
    for p, t in factors:
        if p == 2:
            op, opt = 1, _order_mod_two_power(b, t)
            order_factors.append(())
        else:
            flat = orders.get(p)
            if flat is None:
                flat = orders[p] = _order_mod_prime(b % p, p)
            op = opt = flat[0]
            order_factors.append(flat[1:])
            if t > 1 and pow(b, opt, p**t) != 1:
                # t > m, so the order mod p**t picks up p**(t - m).
                opt *= p ** (t - _lift_exponent(b, p, opt))
        per_prime.append((p, t, opt, op))
        order = math.lcm(order, opt)
    return ModulusProfile(b, N, factors, order, tuple(per_prime), tuple(order_factors))


def _order_exponents(profile: ModulusProfile) -> dict[int, int]:
    """{q: e} with the profile's order equal to the product of the q**e.

    The order mod p comes factored in order_factors, p enters the order
    mod p**t only by lifting, since the order mod p divides p - 1 (at
    p = 2 it is 1), and the lcm takes each prime's largest exponent."""
    exponents: dict[int, int] = {}
    for (p, _, opt, op), flat in zip(profile.per_prime, profile.order_factors):
        for i in range(0, len(flat), 2):
            q = flat[i]
            if flat[i + 1] > exponents.get(q, 0):
                exponents[q] = flat[i + 1]
        if opt != op:
            # p is new here: the orders at smaller primes lie below p.
            exponents[p] = arith.valuation(p, opt)
    return exponents


# Most divisors _order_divisors lists: more than any order below 10**18
# has (103,680).  midy-set took 2.2 s and 26 MB with 184,320 divisors, and
# 4.4 s and 37 MB with 368,640, on a 2-vCPU VM (Python 3.11).
DIVISOR_COUNT_LIMIT = 2**18


def _order_divisors(profile: ModulusProfile) -> list[int]:
    """The divisors d > 1 of the profile's order, ascending.

    Expanded from _order_exponents, so the order is never factored.  An
    order with more than DIVISOR_COUNT_LIMIT divisors raises
    BoundedSearchError before the list is built."""
    exponents = _order_exponents(profile)
    # No order has more divisors than its value, so a scan row below the
    # limit skips the count.
    if profile.order > DIVISOR_COUNT_LIMIT:
        count = math.prod(e + 1 for e in exponents.values())
        if count > DIVISOR_COUNT_LIMIT:
            raise BoundedSearchError(
                f"the order {profile.order} has {count} divisors, more than "
                f"the limit {DIVISOR_COUNT_LIMIT}",
                DIVISOR_COUNT_LIMIT,
            )
    divisors = [1]
    for q, e in exponents.items():
        if e == 1:
            # Most primes of an order: no loop over powers to set up.
            divisors += [d * q for d in divisors]
            continue
        block = divisors
        for _ in range(e):
            block = [d * q for d in block]
            divisors += block
    divisors.sort()
    return divisors[1:]


def modulus_profile(
    b: int, N: int, *, n_factors: arith.Factorization | None = None
) -> ModulusProfile:
    """Factorization of N and the orders of b at N, its primes and prime powers.

    One prime-power order per prime power of N; the order mod p is the
    value that computation starts from.  n_factors may supply a
    factorization of N; DomainError if it does not multiply back to N, if
    its primes are not strictly increasing, if an exponent is below 1 or
    if it lists a number that is not prime.  A factorization made here by
    arith.factor is not tested again.
    """
    if N < 1:
        raise DomainError("modulus must be >= 1")
    if math.gcd(b, N) != 1:
        raise PreconditionError(f"gcd({b}, {N}) != 1; order undefined")
    if n_factors is None:
        return _profile(b, N, arith.factor(N), {})
    if n_factors.value != N:
        raise DomainError(f"n_factors multiply to {n_factors.value}, not {N}")
    prev = 1
    for p, e in n_factors:
        if p <= prev:
            raise DomainError("factorization primes must be strictly increasing")
        if e < 1:
            raise DomainError("factorization exponents must be >= 1")
        if not arith.is_prime(p):
            raise DomainError(f"{p} is not prime")
        prev = p
    return _profile(b, N, n_factors, {})


def _check_block_count(d: int, L: int) -> int:
    """k = L / d for a block count d of the order L: PreconditionError
    unless d > 1 divides L."""
    if d <= 1:
        raise PreconditionError("block count d must be > 1")
    if L % d != 0:
        raise PreconditionError(f"d = {d} does not divide the order {L}")
    return L // d


def order_mod(
    b: int, N: int, *, n_factors: arith.Factorization | None = None
) -> int:
    """Least L >= 1 with b**L == 1 (mod N); requires gcd(b, N) == 1.

    Read from modulus_profile(b, N), which also checks a supplied
    n_factors (its product, the order of its primes, its exponents and
    the primality of each prime).
    """
    return modulus_profile(b, N, n_factors=n_factors).order


def order_mod_naive(b: int, N: int) -> int:
    """Order by successive powers; cross-validation fallback."""
    if N < 1:
        raise DomainError("modulus must be >= 1")
    if N == 1:
        return 1
    if math.gcd(b, N) != 1:
        raise PreconditionError(f"gcd({b}, {N}) != 1; order undefined")
    r = b % N
    order = 1
    while r != 1:
        r = r * b % N
        order += 1
    return order
