"""Prime-power block counts and the constructive progression of primes.

For a prime q and exponent v, membership of q**v in the property set of N
is decided from the shape of N alone: the exponent of q in N, the lift
valuation m of the base at q, and the q-adic valuations of the base's
orders at the remaining primes of N.  Every prime P == 1 (mod q**v) whose
order q**v divides admits q**v, and the smallest N admitting q**v is such
a prime (except N = 4 for q**v = 2 in some odd bases).  That yields an
endless supply of such primes: each found prime forces a larger q-power
modulus, which forces a larger prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import arith
from .arith import _SMALL_PRIME_LIMIT, _TRIAL_PRIMES
from .errors import BoundedSearchError, PreconditionError
from .midy import midy_check_ppl2
from .order import ModulusProfile, lift_valuation, modulus_profile, order_mod
from .order import _order_mod_prime

__all__ = [
    "DEFAULT_SEARCH_BOUND",
    "PrimePowerStructure",
    "ProgressionTrace",
    "midy_prime_v1_check",
    "prime_power_midy_structure",
    "prime_power_structure",
    "prime_progression",
    "smallest_midy_witness",
]

# Maximum number of candidates any single bounded search will examine.
DEFAULT_SEARCH_BOUND = 10**7


@dataclass(frozen=True)
class PrimePowerStructure:
    """Shape data of N relative to q: N = q**q_exponent * prod p_i**h_i.

    m is the lift valuation of the base at q (None when q does not divide
    N, where it is never consulted); order_valuations holds the q-adic
    valuation of the base's order at each p_i.
    """

    base: int
    q: int
    v: int
    modulus: int
    q_exponent: int
    others: tuple[tuple[int, int], ...]
    m: int | None
    order_valuations: tuple[int, ...]


@dataclass(frozen=True)
class ProgressionTrace:
    """Strictly increasing primes, each 1 mod its step modulus.

    steps holds (modulus, prime) pairs; every prime is congruent to 1
    modulo q**v, and from the second step on each modulus exceeds the
    previous prime.
    """

    base: int
    q: int
    v: int
    steps: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for _, p in self.steps)

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.steps)


def _checked_profile(b: int, N: int, q: int, v: int) -> ModulusProfile:
    if not arith.is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if v < 1:
        raise PreconditionError("v must be >= 1")
    profile = modulus_profile(b, N)
    if profile.order % q**v != 0:
        raise PreconditionError(f"{q**v} does not divide the order {profile.order}")
    return profile


def prime_power_structure(b: int, N: int, q: int, v: int) -> PrimePowerStructure:
    """Collect the shape data needed by the structural membership test."""
    profile = _checked_profile(b, N, q, v)
    n = profile.factors.valuation(q)
    rest = [(p, h, ord_p) for p, h, _, ord_p in profile.per_prime if p != q]
    return PrimePowerStructure(
        base=b,
        q=q,
        v=v,
        modulus=N,
        q_exponent=n,
        others=tuple((p, h) for p, h, _ in rest),
        m=lift_valuation(b, q) if n > 0 else None,
        order_valuations=tuple(arith.valuation(q, ord_p) for _, _, ord_p in rest),
    )


def prime_power_midy_structure(b: int, N: int, q: int, v: int) -> bool:
    """Structural membership test for block count q**v.

    Requires q**v to divide the order of b mod N.  N must carry q to at
    most the v-th power, every other prime of N must have an order whose
    q-valuation is positive, and the largest of those valuations (or the
    excess q-exponent over the lift valuation, when positive) may beat the
    smallest by less than v.  Pure powers of q carry no other primes and
    are decided by the valuation decider directly.
    """
    s = prime_power_structure(b, N, q, v)
    if not s.others:
        pure = arith.Factorization(((q, s.q_exponent),))
        return midy_check_ppl2(b, N, q**v, n_factors=pure).holds
    if s.q_exponent > v:
        return False
    if any(a == 0 for a in s.order_valuations):
        return False
    peak = max(s.order_valuations)
    if s.m is not None and s.q_exponent > s.m:
        peak = max(peak, s.q_exponent - s.m)
    return peak - v < min(s.order_valuations)


def midy_prime_v1_check(b: int, N: int, q: int) -> bool:
    """Single-prime block count test (the v = 1 case).

    When q does not divide N: the base's order at every prime of N must
    carry the full q-valuation of the global order.  When q divides N:
    additionally q**2 must not divide N, and the equality is required of
    every prime of N other than q.
    """
    profile = _checked_profile(b, N, q, 1)
    nu_L = arith.valuation(q, profile.order)
    if profile.factors.valuation(q) > 1:
        return False
    return all(
        p == q or arith.valuation(q, ord_p) == nu_L
        for p, _, _, ord_p in profile.per_prime
    )


def _check_search_args(b: int, q: int, v: int) -> None:
    if b < 2:
        raise PreconditionError("base must be >= 2")
    if not arith.is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if v < 1:
        raise PreconditionError("v must be >= 1")


def smallest_midy_witness(
    b: int, q: int, v: int, *, bound: int = DEFAULT_SEARCH_BOUND
) -> int:
    """Smallest N >= 2 coprime to b whose property set contains q**v.

    Linear scan over N <= bound; the reference for prime_progression's
    search.  The result is a prime congruent to 1 mod q**v, except N = 4
    for q**v = 2 when b == 3 (mod 4) and b != 2 (mod 3): the even-prime
    allowance keeps 4 while 3 lacks an even order.  That is asserted, and
    its failure would falsify the theory, not the input.
    """
    _check_search_args(b, q, v)
    d = q**v
    for N in range(2, bound + 1):
        if math.gcd(N, b) != 1:
            continue
        if order_mod(b, N) % d != 0:
            continue
        if midy_check_ppl2(b, N, d).holds:
            assert (d == 2 and N == 4) or (arith.is_prime(N) and N % d == 1), (
                f"witness {N} for base {b}, modulus {d} is not a prime "
                f"congruent to 1"
            )
            return N
    raise BoundedSearchError(
        f"no witness for q**v = {d} in base {b} below bound {bound}", bound
    )


def _pocklington_step(b: int, q: int, P: int) -> bool | None:
    """Decide P = j * q**s + 1 with the base as Pocklington witness.

    gcd(b, P) must be 1.  With F = q**nu_q(P - 1) and x = b**((P-1)/q)
    mod P: if x**q != 1, b**(P-1) != 1 and P is composite (False).  If
    x != 1, F * F > P and gcd(x - 1, P) == 1, every prime r of P has
    r == 1 (mod F), so r > sqrt(P) and P is prime; and F, all of the
    q-part of P - 1, divides the order of b mod P (True).  Anything else
    is left undecided (None).  With F * F > P and b**(P-1) == 1, x != 1
    and the gcd condition imply each other for a single q; both are
    kept, as the textbook certificate.
    """
    x = pow(b, (P - 1) // q, P)
    if pow(x, q, P) != 1:
        return False
    F = q
    while (P - 1) % (F * q) == 0:
        F *= q
    if x != 1 and F * F > P and math.gcd(x - 1, P) == 1:
        return True
    return None


def _next_prime_in_progression(
    b: int, q: int, modulus: int, last: int, bound: int
) -> int:
    """Smallest prime P == 1 (mod modulus) whose property set has modulus.

    Scans P = j * modulus + 1 for j = 1..last; modulus is a power of the
    prime q.  A prime has the property for every d > 1 dividing its
    order, so only the order matters.  Past the small primes, P must be
    free of is_prime's trial primes, and then the base proves most
    candidates prime or composite by _pocklington_step; the undecided
    ones, and the small primes, take is_prime and the order mod P.
    """
    coprime_to = b * math.prod(_TRIAL_PRIMES)
    for j in range(1, last + 1):
        P = j * modulus + 1
        small = P < _SMALL_PRIME_LIMIT
        if math.gcd(P, b if small else coprime_to) != 1:
            continue
        found = None if small else _pocklington_step(b, q, P)
        if found is None:
            found = arith.is_prime(P) and _order_mod_prime(b % P, P)[0] % modulus == 0
        if found:
            return P
    raise BoundedSearchError(
        f"no prime congruent to 1 mod {modulus} with the property for base {b} "
        f"within bound {bound}",
        bound,
    )


def prime_progression(
    b: int, q: int, v: int, count: int, *, bound: int = DEFAULT_SEARCH_BOUND
) -> ProgressionTrace:
    """Generate count primes congruent to 1 mod q**v, strictly increasing.

    Each step takes the least power q**(t*v) above the previous prime
    (q**v first) and the smallest prime congruent to 1 modulo it that
    keeps the property: at most bound for the first step, and among the
    first bound candidates for each later one.
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    _check_search_args(b, q, v)
    step = q**v
    first = _next_prime_in_progression(b, q, step, (bound - 1) // step, bound)
    steps = [(step, first)]
    while len(steps) < count:
        modulus, prev = steps[-1]
        while modulus <= prev:
            modulus *= step
        prime = _next_prime_in_progression(b, q, modulus, bound, bound)
        steps.append((modulus, prime))
    return ProgressionTrace(base=b, q=q, v=v, steps=tuple(steps))
