"""Standard-library number theory for making inputs and checking outputs.

The benchmark never asks midylab to build its own inputs or to supply
the reference values it is checked against: inputs must not depend on
the code under test, and must not warm its caches.  Everything here is
a plain textbook routine on Python ints.
"""

from __future__ import annotations

import math

_SMALL = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]

# With these bases the strong-probable-prime test is a proof below 3.3e24,
# which covers every number the generators draw; the late progression
# primes above it get the same test as a probable-prime check.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL[:25]:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    # Pollard rho with Floyd cycle finding and batched gcds; n odd composite.
    for c in range(1, 200):
        x = y = 2
        g = 1
        while g == 1:
            q = 1
            for _ in range(64):
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")


def factor(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1."""
    out: dict[int, int] = {}
    for p in _SMALL:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def divisors(factors: dict[int, int]) -> list[int]:
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _order_prime_power(b: int, p: int, t: int) -> dict[int, int]:
    # The order modulo p**t divides p**(t-1) * (p - 1): strip primes from
    # that group exponent while b to the power stays 1.
    mod = p**t
    group = factor(p - 1)
    if t > 1:
        group[p] = group.get(p, 0) + t - 1
    exponent = math.prod(q**e for q, e in group.items())
    for q in list(group):
        while group[q] and pow(b, exponent // q, mod) == 1:
            exponent //= q
            group[q] -= 1
    return {q: e for q, e in group.items() if e}


def order_factors(b: int, factors: dict[int, int]) -> dict[int, int]:
    """Factorization of the order of b modulo the number factored as given."""
    out: dict[int, int] = {}
    for p, t in factors.items():
        for q, e in _order_prime_power(b, p, t).items():
            out[q] = max(out.get(q, 0), e)
    return dict(sorted(out.items()))


def order(b: int, factors: dict[int, int]) -> int:
    return math.prod(q**e for q, e in order_factors(b, factors).items())


def is_order(b: int, n: int, L: int) -> bool:
    """True iff L is the multiplicative order of b mod n (b coprime to n)."""
    if n == 1:
        return L == 1
    if L < 1 or pow(b, L, n) != 1:
        return False
    return all(pow(b, L // q, n) != 1 for q in factor(L))


def random_prime(rng, lo: int, hi: int) -> int:
    """A prime drawn near-uniformly from [lo, hi)."""
    while True:
        c = rng.randrange(lo, hi)
        if is_prime(c):
            return c
