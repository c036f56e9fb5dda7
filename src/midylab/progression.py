"""Prime-power block counts and the constructive progression of primes.

For a prime q and exponent v, membership of q**v in the property set of N
is decided from the shape of N alone: the exponent of q in N, the lift
valuation m of the base at q, and the q-adic valuations of the base's
orders at the remaining primes of N.  Every prime P == 1 (mod q**v) whose
order q**v divides admits q**v, and the smallest N admitting q**v is such
a prime (except N = 4 for q**v = 2 in some odd bases).  That yields an
endless supply of such primes: each found prime forces a larger q-power
modulus, which forces a larger prime.

A prime has the property for every d > 1 dividing its order, so each
candidate P = j * q**s + 1 of a step is decided by whether q**s divides
the order of b mod P.  That is one modular power, which also serves as a
Fermat test and, mostly, as a Pocklington proof with the base as witness
(_pocklington_step); is_prime decides the rest, and nothing is factored.
From P = 1000 on, a wheel mod 210 never generates the j whose P is
divisible by 2, 3, 5 or 7, and two gcds drop the rest of the candidates
with a prime factor below 1000 before the modular power.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import arith
from .arith import _SMALL_PRIME_LIMIT, _SMALL_PRIMES, _TRIAL_PRIMES, _TRIAL_PRODUCT
from .errors import BoundedSearchError, PreconditionError
from .midy import _ppl2_verdicts
from .order import ModulusProfile, _lift_exponent, modulus_profile

__all__ = [
    "DEFAULT_SEARCH_BOUND",
    "PROGRESSION_BIT_LIMIT",
    "PROGRESSION_COUNT_LIMIT",
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

# Most primes prime_progression generates.  Each step's modulus exceeds
# the last prime, so for small q**v the primes gain about 7 bits a step
# and the time grows about as count**5: 100 primes take 1.3 s in base 10
# with q = 2, v = 1 and 2.0 s with q = 13, v = 1, 160 primes 13.5 s, on a
# 2-vCPU VM (Python 3.11, CPU time).  A step gains at least the bits of
# q**v, so a large q**v is slower per step (q = 2, v = 20: 60 primes in
# 7.3 s).
PROGRESSION_COUNT_LIMIT = 100

# Most count * (q**v).bit_length() that prime_progression accepts.  Each
# step's modulus grows by at least q**v, so the primes gain at least the
# bits of q**v a step: q = 2, v = 20 took 7.3 s for 60 primes.  400
# keeps 100 primes for every q**v <= 13 (2.0 s for q = 13, v = 1 in
# base 10), and a large q**v within it is quick (q = 2, v = 20: 19
# primes of up to 386 bits in 0.03 s).
PROGRESSION_BIT_LIMIT = 400

# The primes below 1000 past is_prime's own gcd with the primes up to 37:
# one gcd with their product rules out a candidate P >= 1000 with such a
# factor.
_PRIMES_41_TO_997 = math.prod(p for p in _SMALL_PRIMES if p > _TRIAL_PRIMES[-1])

# 2 * 3 * 5 * 7: the wheel that generates a step's j.
_WHEEL = 210


class PrimePowerStructure(NamedTuple):
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


class ProgressionTrace(NamedTuple):
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
    _check_search_args(b, q, v)
    profile = modulus_profile(b, N)
    if profile.order % q**v != 0:
        raise PreconditionError(f"{q**v} does not divide the order {profile.order}")
    return profile


def prime_power_structure(b: int, N: int, q: int, v: int) -> PrimePowerStructure:
    """Collect the shape data needed by the structural membership test."""
    return _structure(_checked_profile(b, N, q, v), q, v)


def _structure(profile: ModulusProfile, q: int, v: int) -> PrimePowerStructure:
    b = profile.base
    n = profile.factors.valuation(q)
    rest = [(p, h, ord_p) for p, h, _, ord_p in profile.per_prime if p != q]
    # From the profile's order mod q: lift_valuation would test q again.
    ord_q = next((ord_p for p, _, _, ord_p in profile.per_prime if p == q), None)
    return PrimePowerStructure(
        base=b,
        q=q,
        v=v,
        modulus=profile.modulus,
        q_exponent=n,
        others=tuple((p, h) for p, h, _ in rest),
        m=None if ord_q is None else _lift_exponent(b, q, ord_q),
        order_valuations=tuple(arith.valuation(q, ord_p) for _, _, ord_p in rest),
    )


def prime_power_midy_structure(b: int, N: int, q: int, v: int) -> bool:
    """Structural membership test for block count q**v.

    Requires q**v to divide the order of b mod N.  N must carry q to at
    most the v-th power, every other prime of N must have an order whose
    q-valuation is positive, and the largest of those valuations (or the
    excess q-exponent over the lift valuation, when positive) may beat the
    smallest by less than v.  Pure powers of q carry no other primes and
    are decided by the valuation decider on the same profile.
    """
    profile = _checked_profile(b, N, q, v)
    s = _structure(profile, q, v)
    if not s.others:
        return _ppl2_verdicts(profile, [q**v]) == [None]
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
        profile = modulus_profile(b, N)
        if profile.order % d == 0 and _ppl2_verdicts(profile, [d]) == [None]:
            assert (d == 2 and N == 4) or (arith.is_prime(N) and N % d == 1), (
                f"witness {N} for base {b}, modulus {d} is not a prime "
                f"congruent to 1"
            )
            return N
    raise BoundedSearchError(
        f"no witness for q**v = {d} in base {b} below bound {bound}", bound
    )


def _pocklington_step(b: int, q: int, modulus: int, P: int) -> bool | None:
    """Decide whether P = j * modulus + 1 is the progression's answer.

    modulus is a power of the prime q and gcd(b, P) must be 1.  Let q**a
    be the q-part of j, so F = q**a * modulus is the q-part of P - 1, and
    z = b**((P-1)/q**(a+1)) mod P.  For a prime P the order of b divides
    P - 1, so modulus divides it exactly when z != 1.  Hence z == 1 means
    P is not the answer, prime or not (False).  With x = z**(q**a) =
    b**((P-1)/q): if x**q != 1, b**(P-1) != 1 and P is composite (False).
    If x != 1, F * F > P and gcd(x - 1, P) == 1, every prime r of P has
    r == 1 (mod F), so r > sqrt(P) and P is prime (Pocklington, with the
    base as witness), and z != 1 puts modulus in its order (True).
    Otherwise P is the answer exactly when it is prime (None).  With
    F * F > P and b**(P-1) == 1, x != 1 and the gcd condition imply each
    other for a single q; both are kept, as the textbook certificate.
    """
    j = (P - 1) // modulus
    F = modulus
    while j % q == 0:
        j //= q
        F *= q
    z = pow(b, j * (modulus // q), P)
    if z == 1:
        return False
    x = pow(z, F // modulus, P)
    if pow(x, q, P) != 1:
        return False
    if x != 1 and F * F > P and math.gcd(x - 1, P) == 1:
        return True
    return None


@functools.cache
def _wheel(residue: int) -> tuple[int, ...]:
    """The r in [0, 210) with r * residue + 1 prime to 210: one turn of the
    wheel for a modulus congruent to residue mod 210 (48 entries when the
    modulus is prime to 210).  At most 210 residues, each built once."""
    return tuple(r for r in range(_WHEEL) if math.gcd(r * residue + 1, _WHEEL) == 1)


def _step_js(modulus: int, last: int):
    """j = 1..last in order, less each j with P = j * modulus + 1 >= 1000
    that shares a factor with 210 (such a P is composite)."""
    head = min(last, (_SMALL_PRIME_LIMIT - 2) // modulus)
    yield from range(1, head + 1)
    wheel = _wheel(modulus % _WHEEL)
    for turn in range(head - head % _WHEEL, last + 1, _WHEEL):
        for r in wheel:
            j = turn + r
            if j > last:
                return
            if j > head:
                yield j


def _next_prime_in_progression(
    b: int, q: int, modulus: int, last: int, bound: int
) -> int:
    """Smallest prime P == 1 (mod modulus) whose property set has modulus.

    Scans P = j * modulus + 1 for j = 1..last in order; modulus is a
    power of the prime q.  A prime has the property for every d > 1
    dividing its order, so only the order matters.  P must be coprime to
    b, and from 1000 on also free of every prime below 1000: _step_js
    skips the j whose P shares a factor with 210, and two gcds test the
    rest, one with b times the primes up to 37 and one with the primes
    41..997.  Below 1000, P may itself be 3, 5 or 7, so only gcd(P, b) is
    taken there.  Each survivor costs one modular power in
    _pocklington_step, which drops it when the order of b cannot carry
    modulus and otherwise proves it composite, or prime with the
    property; is_prime decides only what the base leaves open.  Nothing
    is factored.  last bounds j itself, not the j generated.
    """
    coprime_to = b * _TRIAL_PRODUCT
    for j in _step_js(modulus, last):
        P = j * modulus + 1
        if P < _SMALL_PRIME_LIMIT:
            if math.gcd(P, b) != 1:
                continue
        elif math.gcd(P, coprime_to) != 1 or math.gcd(P, _PRIMES_41_TO_997) != 1:
            continue
        found = _pocklington_step(b, q, modulus, P)
        if found is None:
            found = arith.is_prime(P)
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
    first bound candidates for each later one.  A count past
    PROGRESSION_COUNT_LIMIT, or count * (q**v).bit_length() past
    PROGRESSION_BIT_LIMIT, raises BoundedSearchError before any search
    and before q's primality test.
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    if count > PROGRESSION_COUNT_LIMIT:
        raise BoundedSearchError(
            f"count {count} is past the limit of {PROGRESSION_COUNT_LIMIT} primes",
            PROGRESSION_COUNT_LIMIT,
        )
    # Checked before is_prime(q), which takes seconds on thousands of bits.
    # q**v has more than v bits, so a huge v is refused before q**v is built.
    if v >= 1 and (
        count * v >= PROGRESSION_BIT_LIMIT
        or count * (q**v).bit_length() > PROGRESSION_BIT_LIMIT
    ):
        shown = q if q.bit_length() <= 64 else f"(a {q.bit_length()}-bit q)"
        raise BoundedSearchError(
            f"count {count} times the bits of {shown}**{v} is past the limit of "
            f"{PROGRESSION_BIT_LIMIT}",
            PROGRESSION_BIT_LIMIT,
        )
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
