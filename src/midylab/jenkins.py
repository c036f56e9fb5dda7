"""Product criterion: when does the property transfer from primes to N.

Given distinct primes p_1..p_t that each have the property for block
count d, and arbitrary positive exponents h_i, the criterion decides
whether N = prod p_i**h_i keeps it.  Two routes are provided: the
lcm-quotient test on the block lengths k_i = |b| mod p_i / d, which
needs no factorization of d, and the direct gcd evaluation, whose
k = |b| mod N / d is the lcm of the lifted cofactors.  Both trust the
instance as built: neither takes an order mod N nor tests a prime.  The
verdict is independent of the h_i: every prime of d divides |b| mod p_i,
hence p_i - 1, so the lifted prime power p_i**(h_i - m_i) contributes
nothing to any prime of d.  jenkins_decomposition gives the paper's
d-smooth exponent vectors of the lifted cofactors; it is the one place
d is factored.  The test suite asserts that the formula route agrees
with the rule on those vectors and that the verdict ignores the h_i on
both routes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import arith
from .errors import BoundedSearchError, DomainError, PreconditionError
from .order import _lift_exponent, _order_mod_prime

__all__ = [
    "JenkinsDecomposition",
    "JenkinsInstance",
    "jenkins_check",
    "jenkins_check_gcd",
    "jenkins_decomposition",
    "jenkins_instance",
    "MODULUS_BIT_LIMIT",
]


# Largest sum of h * p.bit_length() over an instance's prime powers, an
# upper bound on the bits of N, for which modulus builds N.  The gcd
# route's pow(b, k, N) grows with the cube of that size: 4096 bits take
# about 0.35 s for the whole jenkins command, 12,000 bits 2.5 s, on a
# 2-vCPU VM (Python 3.11).  4096 bits are 1,234 decimal digits, well
# inside the 4,300 that JSON output may print.
MODULUS_BIT_LIMIT = 4096


class JenkinsInstance(NamedTuple):
    """A product instance: base, block count and the (prime, exponent) list.

    orders, block_lengths and lift_valuations hold |b| mod p_i,
    k_i = |b| mod p_i / d, and m_i for each prime, in listed order.
    """

    base: int
    d: int
    prime_powers: tuple[tuple[int, int], ...]
    orders: tuple[int, ...]
    block_lengths: tuple[int, ...]
    lift_valuations: tuple[int, ...]

    @property
    def modulus(self) -> int:
        """N = prod p_i**h_i; BoundedSearchError, before building it, when
        the sum of h_i * p_i.bit_length() passes MODULUS_BIT_LIMIT."""
        bits = sum(h * p.bit_length() for p, h in self.prime_powers)
        if bits > MODULUS_BIT_LIMIT:
            raise BoundedSearchError(
                f"the modulus may have {bits} bits, past the limit of "
                f"{MODULUS_BIT_LIMIT}",
                MODULUS_BIT_LIMIT,
            )
        n = 1
        for p, h in self.prime_powers:
            n *= p**h
        return n


class JenkinsDecomposition(NamedTuple):
    """d-smooth decomposition of the lifted cofactors z_j = p_j**max(h_j-m_j,0) * k_j.

    d_primes lists (q_i, r_i) with d = prod q_i**r_i.  For each j,
    z_j = d**c_j * prod q_i**alpha_j[i] * y_j with y_j coprime to every q_i
    and the alpha vector containing no further full copy of d.
    """

    d_primes: tuple[tuple[int, int], ...]
    c: tuple[int, ...]
    alpha: tuple[tuple[int, ...], ...]
    cofactors: tuple[int, ...]


def jenkins_instance(b: int, d: int, prime_powers) -> JenkinsInstance:
    """Build and validate an instance; every prime must have the property for d."""
    if d <= 1:
        raise PreconditionError("block count d must be > 1")
    pairs = tuple((int(p), int(h)) for p, h in prime_powers)
    if not pairs:
        raise PreconditionError("at least one (prime, exponent) pair required")
    seen = set()
    for p, h in pairs:
        # The order mod p factors p - 1, which has as many bits as p, so
        # a p past the factoring limit is refused before is_prime, which
        # takes seconds on thousands of bits.
        arith._check_factor_bits(p)
        if not arith.is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if h < 1:
            raise PreconditionError(f"exponent of {p} must be >= 1")
        if p in seen:
            raise PreconditionError(f"prime {p} repeated")
        seen.add(p)
    # A prime has the property for every d > 1 dividing its order, so
    # that divisibility is the whole check.  Each p is tested once, above:
    # the orders and the lifts are read for primes already known.
    orders = []
    for p, _ in pairs:
        if b % p == 0:
            raise PreconditionError(f"gcd({b}, {p}) != 1; order undefined")
        op = _order_mod_prime(b % p, p)[1]
        if op % d != 0:
            raise PreconditionError(
                f"prime {p} does not have the property for d = {d} in base {b}"
            )
        orders.append(op)
    block_lengths = tuple(op // d for op in orders)
    if b < 2:
        raise DomainError("lift valuation undefined for base < 2")
    lifts = tuple(_lift_exponent(b, p, op) for (p, _), op in zip(pairs, orders))
    return JenkinsInstance(
        base=b,
        d=d,
        prime_powers=pairs,
        orders=tuple(orders),
        block_lengths=block_lengths,
        lift_valuations=lifts,
    )


def _lifted_cofactors(inst: JenkinsInstance) -> list[int]:
    # z_j = p_j**max(h_j - m_j, 0) * k_j, each d * z_j the order of b mod
    # p_j**h_j: exponents h <= m add no power of p, by the lifting rule.
    pairs = zip(inst.prime_powers, inst.lift_valuations, inst.block_lengths)
    return [p ** max(h - m, 0) * k for (p, h), m, k in pairs]


def jenkins_decomposition(inst: JenkinsInstance) -> JenkinsDecomposition:
    """Split each lifted cofactor into d-power, residual d-primes and cofactor."""
    d_primes = arith.factor(inst.d).factors
    cs = []
    alphas = []
    ys = []
    for z in _lifted_cofactors(inst):
        exps = [arith.valuation(q, z) for q, _ in d_primes]
        c = min(e // r for e, (_, r) in zip(exps, d_primes))
        alpha = tuple(e - c * r for e, (_, r) in zip(exps, d_primes))
        y = z
        for (q, _), e in zip(d_primes, exps):
            y //= q**e
        cs.append(c)
        alphas.append(alpha)
        ys.append(y)
    return JenkinsDecomposition(
        d_primes=d_primes, c=tuple(cs), alpha=tuple(alphas), cofactors=tuple(ys)
    )


def jenkins_check(inst: JenkinsInstance) -> bool:
    """lcm-quotient route: for every j, lcm(k_1..k_t) / k_j is not
    divisible by d.

    The paper states the test on the d-smooth parts of the lifted
    cofactors p_j**(h_j - m_j) * k_j; this reads it off the k_j alone,
    without factoring d.  Every prime of d divides |b| mod p_j, hence
    p_j - 1, so no p_j is a prime of d: the lifted powers add nothing at
    the primes of d, and there the lcm and each quotient carry the same
    exponents as those of the d-smooth parts.  Whether d divides a
    number depends on its exponents at the primes of d alone.
    """
    lcm = math.lcm(*inst.block_lengths)
    return all(lcm // k % inst.d for k in inst.block_lengths)


def _block_gcd(inst: JenkinsInstance) -> int:
    # gcd(b**k - 1, N) with k = order of b mod N over d, the lcm of the
    # lifted cofactors: the instance is trusted as built.
    N = inst.modulus
    k = math.lcm(*_lifted_cofactors(inst))
    return arith.gcd_pow_minus_one(inst.base, k, N)


def jenkins_check_gcd(inst: JenkinsInstance) -> bool:
    """Direct route: gcd(b**k - 1, N) == 1 with k = order of b mod N over d."""
    return _block_gcd(inst) == 1
