"""Structural deciders for the block-sum property and set enumeration.

Two independent characterizations are implemented: the valuation test on
the primes shared by N and b**k - 1 (the production decider) and the
order-valuation existence test (the cross-check).  The test suite checks
both against the digit-level oracle of expansion.py; none of the three
factors b**k - 1.  Each decider of one d is modulus_profile plus a
private form on the profile (_ppl2, _ppl3, _direct): midy-check builds
one profile and runs every method on it.

The production decider reads one ModulusProfile per N: the factorization
and the orders of b at every prime and prime power of N are computed
once, and each block count d is then decided with no modular power at
all, since b**k == 1 (mod p) exactly when |b| mod p divides k = L/d.
The divisors of L come from order._order_divisors and its exponents from
the profile's order_exponents, so L is never factored either, and a
decider of one d builds no divisor list.  _ppl2_verdicts, the one decider
behind midy_set, midy_check_ppl2, guel_triple and both CLI scan formats,
gives each divisor's culprit prime or None; midy_check_ppl2 turns a culprit
into a PrimeCertificate, and the scan's JSON rows render the same fields
without one.  The cross-check reads the same profile and the exponents of L
but decides the odd primes by its own rule.  A supplied n_factors is
checked where it enters, in modulus_profile (DomainError if it does not
multiply back to N, is out of order or lists a non-prime), and a block
count d in order._check_block_count, which the direct oracle shares.

At the even prime the naive valuation bound nu_2(N) <= nu_2(d) is too
strict: squaring b**k gains nu_2(b**k + 1) - 1 extra factors of two, so
even moduli get the wider allowance of _even_prime_power, which both
deciders read, so the digit-level oracle is their check at p = 2.
Without it they would wrongly reject, e.g., base 3 with N = 4 and d = 2,
where both one-digit block sums equal b - 1 exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from . import arith, expansion
from .arith import Factorization
from .errors import HypothesisNotApplicableError
from .order import (
    ModulusProfile,
    _check_block_count,
    _order_divisors,
    modulus_profile,
)

__all__ = [
    "GcdCertificate",
    "MidySet",
    "MidyVerdict",
    "OracleCertificate",
    "PrimeCertificate",
    "guel_triple",
    "midy_check_direct",
    "midy_check_ppl2",
    "midy_check_ppl3",
    "midy_set",
]


class PrimeCertificate(NamedTuple):
    """Prime divisor of N witnessing a failed or unmatched valuation test."""

    p: int
    nu_n: int
    nu_d: int


class OracleCertificate(NamedTuple):
    """Smallest numerator whose block sum misses divisibility."""

    x: int


class GcdCertificate(NamedTuple):
    """A gcd(b**k - 1, N) value greater than 1."""

    g: int


Certificate = PrimeCertificate | OracleCertificate | GcdCertificate


class MidyVerdict(NamedTuple):
    holds: bool
    method: str
    certificate: Certificate | None = None


class MidySet(NamedTuple):
    """All block counts d > 1 dividing the order for which the property holds.

    members is ascending and upward closed under divisibility within the
    divisors of the order.
    """

    base: int
    modulus: int
    order: int
    members: tuple[int, ...]


def _even_prime_power(b: int, t: int, L: int) -> int:
    """The power of 2 that a member d must carry when 2**t exactly divides N.

    Membership demands nu_p(N) + nu_p(b**k - 1) <= nu_p(b**(kd) - 1) at
    every prime p of gcd(b**k - 1, N).  For odd p the power lifts by
    exactly nu_p(d).  At p = 2 (b odd) an odd d lifts nothing, and an
    even d lifts nu_2(d) plus the square step's nu_2(b**k + 1) - 1: 0 for
    even k, and gain = nu_2(b + 1) - 1 for odd k, since b**k + 1 is then
    b + 1 times an alternating sum of k odd terms, which is odd.  With
    v = nu_2(L), k is odd when nu_2(d) == v, so an even d holds when
    nu_2(d) >= t, or when nu_2(d) == v and t <= v + gain; 2**(v + 1)
    divides no d.
    """
    v = (L & -L).bit_length() - 1
    gain = arith.valuation(2, b + 1) - 1
    return 2 ** (max(1, min(t, v)) if t <= v + gain else v + 1)


def _ppl2_verdicts(profile: ModulusProfile, divisors: list[int]) -> list:
    """The culprit of each block count d in divisors, read off the profile.

    Each d must divide the order.  A culprit is None exactly when its d
    has the property, else the per_prime entry (p, nu_p(N), ...) of the
    first prime of N that breaks d, for a PrimeCertificate.

    A prime p can break d only when ord_p divides k = L/d, that is when
    d divides M = L/ord_p, so a row whose primes all have M == 1 is
    decided with no loop over its divisors.  At odd p, d then breaks
    exactly when p**nu_p(N) does not divide it, since the allowance
    there is nu_p(d).  At p = 2 (M = L) it breaks exactly when the power
    of _even_prime_power does not divide it.  The primes go largest
    first, so the first one to break d writes its culprit last.
    """
    L = profile.order
    culprits = [None] * len(divisors)
    for entry in reversed(profile.per_prime):
        p, nu_n, _, ord_p = entry
        if ord_p == L:
            continue
        M = L // ord_p
        pt = _even_prime_power(profile.base, nu_n, L) if p == 2 else p**nu_n
        for i, d in enumerate(divisors):
            if M % d == 0 and d % pt:
                culprits[i] = entry
    return culprits


def _order_escapes(ord_p: int, d: int, exponents: dict[int, int]) -> bool:
    """True when ord_p does not divide k = L/d, exponents being {q: nu_q(L)}
    over the primes of the order L.

    That is, some q has nu_q(ord_p) > nu_q(L) - nu_q(d).
    """
    return any(
        arith.valuation(q, ord_p) > e - arith.valuation(q, d)
        for q, e in exponents.items()
    )


def midy_check_ppl2(
    b: int, N: int, d: int, *, n_factors: Factorization | None = None
) -> MidyVerdict:
    """Valuation test over the primes of N dividing b**k - 1.

    Holds iff every prime p of N with b**k == 1 (mod p), that is with
    |b| mod p dividing k, has its exponent in N within the membership
    allowance: the exponent of p in d, plus at p = 2 the extra 2-adic
    room of the square step (_even_prime_power).  The orders come from
    one ModulusProfile of N, so no modular power is taken per prime.  A
    false verdict carries the violating prime with both exponents.
    n_factors may supply a factorization of N; DomainError if it is not
    one.
    """
    return _ppl2(modulus_profile(b, N, n_factors=n_factors), d)


def _ppl2(profile: ModulusProfile, d: int) -> MidyVerdict:
    _check_block_count(d, profile.order)
    [culprit] = _ppl2_verdicts(profile, [d])
    if culprit is None:
        return MidyVerdict(holds=True, method="ppl2")
    p, nu_n = culprit[0], culprit[1]
    cert = PrimeCertificate(p=p, nu_n=nu_n, nu_d=arith.valuation(p, d))
    return MidyVerdict(holds=False, method="ppl2", certificate=cert)


def midy_check_ppl3(
    b: int, N: int, d: int, *, n_factors: Factorization | None = None
) -> MidyVerdict:
    """Order-valuation existence test.

    Holds iff each odd prime p of N exceeding its exponent in d admits a
    prime q of the order with nu_q(|b| mod p) > nu_q(order) - nu_q(d),
    i.e. the order of b at p does not divide k.  The even prime has no
    such escape (|b| mod 2 is 1) and is held to the same 2-adic allowance
    as midy_check_ppl2, read from the same _even_prime_power.  n_factors
    may supply a factorization of N; DomainError if it is not one.
    """
    return _ppl3(modulus_profile(b, N, n_factors=n_factors), d)


def _ppl3(profile: ModulusProfile, d: int) -> MidyVerdict:
    L = profile.order
    _check_block_count(d, L)
    exponents = profile.order_exponents
    for p, nu_n, _, ord_p in profile.per_prime:
        nu_d = arith.valuation(p, d)
        if p == 2:
            fails = d % _even_prime_power(profile.base, nu_n, L) != 0
        else:
            fails = nu_n > nu_d and not _order_escapes(ord_p, d, exponents)
        if fails:
            cert = PrimeCertificate(p=p, nu_n=nu_n, nu_d=nu_d)
            return MidyVerdict(holds=False, method="ppl3", certificate=cert)
    return MidyVerdict(holds=True, method="ppl3")


def midy_check_direct(b: int, N: int, d: int) -> MidyVerdict:
    """Digit-level oracle verdict with its smallest counterexample."""
    return _direct(modulus_profile(b, N), d)


def _direct(profile: ModulusProfile, d: int) -> MidyVerdict:
    x = expansion._failing_x(profile, d)
    cert = None if x is None else OracleCertificate(x=x)
    return MidyVerdict(holds=x is None, method="direct", certificate=cert)


def midy_set(
    b: int, N: int, *, n_factors: Factorization | None = None
) -> MidySet:
    """Enumerate every block count d > 1 of the order with the property."""
    profile = modulus_profile(b, N, n_factors=n_factors)
    divisors = _order_divisors(profile)
    culprits = _ppl2_verdicts(profile, divisors)
    members = tuple(d for d, culprit in zip(divisors, culprits) if culprit is None)
    return MidySet(base=b, modulus=N, order=profile.order, members=members)


def guel_triple(b: int, N: int, d: int) -> tuple[bool, bool, bool]:
    """Evaluate the three statements of the all-primes-exceed case.

    Applicable only when every prime of N has a strictly larger exponent in
    N than in d; otherwise HypothesisNotApplicableError.  Returns the truth
    values of (gcd(b**k - 1, N) == 1, membership, per-prime existence test).
    For odd N the three provably coincide; even N can split them at the
    even prime, where membership outlives a nontrivial gcd (base 3, N = 4,
    d = 2 returns (False, True, False)).
    """
    profile = modulus_profile(b, N)
    k = _check_block_count(d, profile.order)
    for p, nu_n, _, _ in profile.per_prime:
        if nu_n <= arith.valuation(p, d):
            raise HypothesisNotApplicableError(
                f"prime {p} has exponent {nu_n} in {N}, "
                f"not exceeding its exponent in {d}"
            )
    stmt_gcd = arith.gcd_pow_minus_one(b, k, N) == 1
    [culprit] = _ppl2_verdicts(profile, [d])
    stmt_exists = all(
        _order_escapes(ord_p, d, profile.order_exponents)
        for _, _, _, ord_p in profile.per_prime
    )
    return stmt_gcd, culprit is None, stmt_exists
