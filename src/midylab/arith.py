"""Exact integer kernel: valuations, factoring, primality.

Everything operates on plain Python ints (arbitrary precision, never
negative here); gcds and modular powers are math.gcd and pow.  All
functions are pure; nothing in this module keeps state between calls.

factor factors one number by trial division below 1000 and Brent's rho
beyond; _factor_lists factors a whole window of consecutive numbers with
one sieve by the same small primes, so a range scan never trial-divides
a number on its own.  Both give the same factors for every n.
"""

from __future__ import annotations

import math

from .errors import BoundedSearchError, DomainError

__all__ = [
    "FACTOR_BIT_LIMIT",
    "Factorization",
    "factor",
    "gcd_pow_minus_one",
    "is_prime",
    "is_prime_proven",
    "MILLER_RABIN_PROVEN_BOUND",
    "RHO_STEP_LIMIT",
    "valuation",
]


def gcd_pow_minus_one(base: int, exp: int, modulus: int) -> int:
    """gcd(base**exp - 1, modulus) without materializing base**exp.

    The first argument of the gcd is reduced to
    (base**exp - 1) mod modulus == (pow(base, exp, modulus) + modulus - 1) % modulus,
    which has the same gcd with modulus.
    """
    if modulus < 1:
        raise DomainError("modulus must be >= 1")
    reduced = (pow(base, exp, modulus) + modulus - 1) % modulus
    return math.gcd(reduced, modulus)


def valuation(p: int, n: int) -> int:
    """Largest e with p**e dividing n.  Requires n >= 1 and p >= 2."""
    if n == 0:
        raise DomainError("valuation of 0 is undefined")
    if n < 0:
        raise DomainError("valuation requires n >= 1")
    if p < 2:
        raise DomainError("valuation base must be >= 2")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

# Below this bound the 12-base Miller-Rabin test is a proven deterministic
# primality test; above it the same bases give an extremely strong
# probable-prime test but no proof.  Query is_prime_proven() for the caveat.
MILLER_RABIN_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

_SMALL_PRIME_LIMIT = 1000

# is_prime divides these out before Miller-Rabin.
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


_SMALL_PRIMES = _sieve(_SMALL_PRIME_LIMIT)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Exact primality verdict for n < MILLER_RABIN_PROVEN_BOUND.

    Above that bound the verdict comes from a fixed-base strong
    probable-prime test: false positives are not known to exist but are
    not excluded by proof.  is_prime_proven(n) reports which regime n
    falls in.
    """
    if n < 2:
        return False
    if n < _SMALL_PRIME_LIMIT:
        return n in _SMALL_PRIME_SET
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return False
    if n < MILLER_RABIN_PROVEN_BOUND:
        return _miller_rabin(n, _MR_BASES)
    return _miller_rabin(n, _MR_BASES + _EXTRA_BASES)


def is_prime_proven(n: int) -> bool:
    """True when is_prime(n) is backed by a deterministic witness set."""
    return n < MILLER_RABIN_PROVEN_BOUND


# ---------------------------------------------------------------------------
# Factoring
# ---------------------------------------------------------------------------


class Factorization(tuple):
    """Canonical factorization: ((p1, e1), (p2, e2), ...) with p1 < p2 < ...

    A tuple of its (p, e) pairs, checked on construction; the empty
    tuple represents 1.
    """

    __slots__ = ()

    def __new__(cls, factors):
        self = tuple.__new__(cls, factors)
        prev = 1
        for p, e in self:
            if p <= prev:
                raise DomainError("factorization primes must be strictly increasing")
            if e < 1:
                raise DomainError("factorization exponents must be >= 1")
            prev = p
        return self

    def __repr__(self) -> str:
        return f"Factorization(factors={tuple(self)!r})"

    @property
    def factors(self) -> tuple[tuple[int, int], ...]:
        """The (p, e) pairs as a plain tuple."""
        return tuple(self)

    @property
    def value(self) -> int:
        n = 1
        for p, e in self:
            n *= p**e
        return n

    def valuation(self, p: int) -> int:
        for q, e in self:
            if q == p:
                return e
        return 0

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self)


# Squaring steps Brent's rho may take on one number, over all its
# increments, before factor gives up with BoundedSearchError.  Rho finds
# a prime factor p in about sqrt(p) steps, so this reaches factors near
# 10**11, eight times the largest need in the tests and the benchmark's
# queries, and stops within a second on a 2-vCPU VM (Python 3.11).
RHO_STEP_LIMIT = 2**20


def _rho_brent(n: int) -> int:
    """Find a nontrivial factor of odd composite n.  Deterministic: the
    polynomial increment is stepped through a fixed sequence.  Each
    doubling of r is charged its 2 * r squarings of y before it starts,
    so those never pass RHO_STEP_LIMIT."""
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 1000):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            steps += 2 * r
            if steps > RHO_STEP_LIMIT:
                raise BoundedSearchError(
                    f"no factor of {n} found within {RHO_STEP_LIMIT} rho steps",
                    RHO_STEP_LIMIT,
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise DomainError(f"rho factorization failed for {n}")  # pragma: no cover


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _rho_brent(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


# Most bits of a number factor accepts.  Rho's step budget costs more the
# longer the number: on a 2-vCPU VM (Python 3.11) a balanced semiprime
# ends in BoundedSearchError after 0.8 s at 128 bits, 1.3 s at 256, 3.2 s
# at 512 and 8.9 s at 1024 bits.  A larger n raises at once, where trial
# division, the Miller-Rabin test and rho could each take seconds.
FACTOR_BIT_LIMIT = 512


def factor(n: int) -> Factorization:
    """Canonical factorization of n >= 1, deterministic for a given n.

    Trial division by primes below 1000, then Brent's cycle method with a
    deterministic parameter schedule on whatever composite remains.  An
    n of more than FACTOR_BIT_LIMIT bits raises BoundedSearchError.
    """
    if n < 1:
        raise DomainError("factor requires n >= 1")
    if n.bit_length() > FACTOR_BIT_LIMIT:
        raise BoundedSearchError(
            f"a number of {n.bit_length()} bits is past the factoring limit "
            f"of {FACTOR_BIT_LIMIT} bits",
            FACTOR_BIT_LIMIT,
        )
    found: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            found[p] = found.get(p, 0) + 1
    if n > 1:
        if n < _SMALL_PRIME_LIMIT * _SMALL_PRIME_LIMIT or is_prime(n):
            found[n] = found.get(n, 0) + 1
        else:
            _factor_into(n, found)
    return Factorization(sorted(found.items()))


def _factor_lists(lo: int, hi: int) -> list[list[tuple[int, int]]]:
    """factor(n) for n in range(lo, hi) as plain lists of (p, e), with one
    sieve for the window; callers wrap only the rows they keep.

    Each prime below 1000 and up to isqrt(hi - 1) is divided out of the
    multiples it has in the window, found by stepping, not by trial.  A
    cofactor left over has no prime factor below 1000 or none up to its
    square root, so it is prime when it is below 10**6, factor's own
    rule; only a larger one goes on to factor's primality test and rho.
    """
    if lo < 1:
        raise DomainError("_factor_lists requires lo >= 1")
    rest = list(range(lo, hi))
    found: list[list[tuple[int, int]]] = [[] for _ in rest]
    limit = math.isqrt(hi - 1) if hi > lo else 0
    for p in _SMALL_PRIMES:
        if p > limit:
            break
        for i in range((-lo) % p, len(rest), p):
            m = rest[i] // p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            rest[i] = m
            found[i].append((p, e))
    # Every prime in a cofactor exceeds every prime sieved out of it.
    for m, factors in zip(rest, found):
        if m == 1:
            continue
        if m < _SMALL_PRIME_LIMIT * _SMALL_PRIME_LIMIT:
            factors.append((m, 1))
        else:
            big: dict[int, int] = {}
            _factor_into(m, big)
            factors.extend(sorted(big.items()))
    return found
