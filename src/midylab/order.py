"""Multiplicative orders: |b| mod N via per-prime-power lifting and lcm.

The order modulo an odd prime power p**t is derived from the order modulo
p: it stays equal to it while t <= m, where m is the p-adic valuation of
b**ord - 1, and picks up a factor p**(t-m) beyond that.  Orders modulo
powers of 2 do not follow that rule and are computed by a direct doubling
scan instead.

modulus_profile gathers everything the deciders read about one modulus
(its factorization, the order, and the orders at each prime and prime
power) in a single pass, so that deciding many block counts for the same
N computes none of it twice.  order_mod is the order field of that
profile, so there is one route to a modulus's order data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import arith
from .errors import DomainError, PreconditionError

__all__ = [
    "ModulusProfile",
    "lift_valuation",
    "modulus_profile",
    "order_mod",
    "order_mod_naive",
    "order_prime_power",
]


@dataclass(frozen=True)
class ModulusProfile:
    """Order data of base modulo modulus, computed once per modulus.

    per_prime lists (p, t, order mod p**t, order mod p) for each p**t in
    factors, in ascending order of p; order is their lcm.
    """

    base: int
    modulus: int
    factors: arith.Factorization
    order: int
    per_prime: tuple[tuple[int, int, int, int], ...]


def _factorization(
    N: int, n_factors: arith.Factorization | None
) -> arith.Factorization:
    # A supplied factorization is trusted only after it multiplies back to N.
    if n_factors is None:
        return arith.factor(N)
    if n_factors.value != N:
        raise DomainError(f"n_factors multiply to {n_factors.value}, not {N}")
    return n_factors


@lru_cache(maxsize=1 << 16)
def _order_mod_prime(b: int, p: int) -> int:
    # b already reduced mod p, p prime, b != 0.  Start from the group
    # exponent p - 1 and strip prime factors while the power stays 1.
    order = p - 1
    for q, _ in arith.factor(p - 1):
        while order % q == 0 and pow(b, order // q, p) == 1:
            order //= q
    return order


@lru_cache(maxsize=1 << 16)
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
    op = _order_mod_prime(b % p, p)
    e = 1
    while pow(b, op, p ** (e + 1)) == 1:
        e += 1
    return e


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


def order_prime_power(b: int, p: int, t: int) -> int:
    """Order of b modulo p**t for prime p not dividing b.

    Odd p uses the lifting rule from the order modulo p; p = 2 is routed
    to the direct doubling scan.
    """
    if t < 1:
        raise DomainError("exponent t must be >= 1")
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if b % p == 0:
        raise PreconditionError(f"base {b} is divisible by {p}")
    if p == 2:
        return _order_mod_two_power(b, t)
    op = _order_mod_prime(b % p, p)
    if t == 1 or pow(b, op, p**t) == 1:
        return op
    # t > m; find the exact m < t by raising the power of p.
    m = 1
    while pow(b, op, p ** (m + 1)) == 1:
        m += 1
    return p ** (t - m) * op


def modulus_profile(
    b: int, N: int, *, n_factors: arith.Factorization | None = None
) -> ModulusProfile:
    """Factorization of N and the orders of b at N, its primes and prime powers.

    One order_prime_power per prime power of N; the order mod p is the
    cached value that call already computed.  n_factors may supply a
    factorization of N; DomainError if it does not multiply back to N.
    """
    if N < 1:
        raise DomainError("modulus must be >= 1")
    if math.gcd(b, N) != 1:
        raise PreconditionError(f"gcd({b}, {N}) != 1; order undefined")
    factors = _factorization(N, n_factors)
    per_prime = []
    order = 1
    for p, t in factors:
        opt = order_prime_power(b, p, t)
        per_prime.append((p, t, opt, _order_mod_prime(b % p, p)))
        order = order * opt // math.gcd(order, opt)
    return ModulusProfile(
        base=b, modulus=N, factors=factors, order=order, per_prime=tuple(per_prime)
    )


def order_mod(
    b: int, N: int, *, n_factors: arith.Factorization | None = None
) -> int:
    """Least L >= 1 with b**L == 1 (mod N); requires gcd(b, N) == 1.

    Read from modulus_profile(b, N).  n_factors may supply a precomputed
    factorization of N; DomainError if it does not multiply back to N.
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
