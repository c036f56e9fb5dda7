"""Exact integer kernel: valuations, factoring, primality.

Everything operates on plain Python ints (arbitrary precision, never
negative here); gcds and modular powers are math.gcd and pow.  All
functions are pure; nothing in this module keeps state between calls
but the table of primes below SIEVE_PRIME_LIMIT and those of Pollard's
p - 1, each built once on first need.

is_prime is a strong-pseudoprime (Miller-Rabin) test whose bases grow
with n: below psi_k, the least strong pseudoprime to the first k prime
bases, those k bases prove primality.  psi_2..psi_4 are from Pomerance,
Selfridge and Wagstaff (Math. Comp. 35, 1980), psi_5..psi_8 from
Jaeschke ("On strong pseudoprimes to several bases", Math. Comp. 61,
1993), psi_9..psi_11 from Jiang and Deng (Math. Comp. 83, 2014), and
psi_12, psi_13 from Sorenson and Webster ("Strong pseudoprimes to twelve
prime bases", Math. Comp. 86, 2017).  From psi_13 =
MILLER_RABIN_PROVEN_BOUND on, the verdict rests on 25 bases and is no
proof; is_prime_proven says which.

factor takes out every prime below 1000 with one gcd against their
product and Brent's rho finds the rest, on one budget of RHO_STEP_LIMIT
steps for all its splits.  Once rho has run 2,046 steps on a number, at
the start of its round r = 1024, it tries Pollard's p - 1 method once
(Pollard, "Theorems on factorization and primality testing", Proc.
Cambridge Philos. Soc. 76, 1974): stage 1 with B1 = 2000, which returns
at once when its gcd splits the number, then the standard stage 2 up to
B2 = 20000 (Montgomery, "Speeding the Pollard and elliptic curve methods
of factorization", Math. Comp. 48, 1987).  _factor_lists factors the
numbers of a window that are coprime to a base with one sieve by every
prime up to the square root of its top, but none of SIEVE_PRIME_LIMIT =
10**5 or more, so a range scan never trial-divides a number on its own,
and below 10**10 it never runs a primality test or rho.  Both give the
same factors for every n.
"""

from __future__ import annotations

import functools
import itertools
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

# psi_k, the least strong pseudoprime to the first k prime bases, and k:
# below psi_k those k bases prove n prime.  psi_7 = psi_8 and psi_9 =
# psi_10 = psi_11, so tiers 8, 10 and 11 add nothing.  Each psi_k passes
# its k bases and fails those of the next tier.  Sources in the module
# docstring.
_MR_TIERS = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)

# psi_13: below it is_prime is a proof; above it the 13 bases and
# _EXTRA_BASES give an extremely strong probable-prime test but no proof.
# Query is_prime_proven() for the caveat.
MILLER_RABIN_PROVEN_BOUND = _MR_TIERS[-1][0]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXTRA_BASES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

_SMALL_PRIME_LIMIT = 1000

# is_prime rules these out before Miller-Rabin, with one gcd against
# their product.
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


def _sieve(limit: int):
    """The primes below limit, ascending, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return itertools.compress(range(limit), flags)


_SMALL_PRIMES = tuple(_sieve(_SMALL_PRIME_LIMIT))
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
# The product of the 168 primes below 1000, for factor's one gcd.
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)

# _factor_lists sieves a window by every prime below this bound, up to the
# square root of the window's top.  Deeper tables sieve slower than the
# Miller-Rabin tests and rho they save.
SIEVE_PRIME_LIMIT = 10**5


@functools.cache
def _prime_gaps() -> bytes:
    """The gaps between 0 and the primes below SIEVE_PRIME_LIMIT, one byte
    each (none exceeds 72), so accumulate(_prime_gaps()) yields the 9,592
    primes.  9.6 kB and no module to import: importing array for a 4-byte
    table took 0.56 MB of peak RSS in a forked scan worker (Python 3.11,
    Linux)."""
    gaps = bytearray()
    last = 0
    for p in _sieve(SIEVE_PRIME_LIMIT):
        gaps.append(p - last)
        last = p
    return bytes(gaps)


def _miller_rabin(n: int, bases) -> bool:
    """Strong probable-prime test of odd n > 2 to each of bases, every
    one of them in 1..n - 1."""
    m = n - 1
    r = (m & -m).bit_length() - 1
    d = m >> r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Exact primality verdict for n < MILLER_RABIN_PROVEN_BOUND.

    Below 1000 a table answers; above, a factor up to 37 rules n out, and
    the Miller-Rabin bases of the least tier psi_k above n prove the
    rest.  Above the last tier the verdict comes from a fixed-base strong
    probable-prime test: false positives are not known to exist but are
    not excluded by proof.  is_prime_proven(n) reports which regime n
    falls in.
    """
    if n < _SMALL_PRIME_LIMIT:
        return n in _SMALL_PRIME_SET
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return False
    for psi, k in _MR_TIERS:
        if n < psi:
            return _miller_rabin(n, _MR_BASES[:k])
    return _miller_rabin(n, _MR_BASES + _EXTRA_BASES)


def is_prime_proven(n: int) -> bool:
    """True when is_prime(n) is backed by a deterministic witness set."""
    return n < MILLER_RABIN_PROVEN_BOUND


# ---------------------------------------------------------------------------
# Factoring
# ---------------------------------------------------------------------------


class Factorization(tuple):
    """Canonical factorization: ((p1, e1), (p2, e2), ...) with p1 < p2 < ...

    A tuple of its (p, e) pairs; the empty tuple represents 1.  Building
    one checks nothing: factor and the scan's sieve make canonical ones,
    and order.modulus_profile checks the shape, product and primes of one
    a caller supplies.
    """

    __slots__ = ()

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


# Squaring steps Brent's rho may take over all the splits of one factor
# call (and of one row of _factor_lists), before it gives up with
# BoundedSearchError.  Rho finds a prime factor p in about sqrt(p) steps,
# so this reaches factors near 10**11, eight times the largest need in the
# tests and the benchmark's queries.  _factor_into passes what is left of
# it from split to split.  The fixed work of _pollard_pm1 (0.5 ms at 56
# bits, 4 ms at 512 on a 2-vCPU VM, Python 3.11) is not charged to it.
RHO_STEP_LIMIT = 2**20

# Pollard's p - 1 (sources in the module docstring).  Stage 1 finds a
# prime p of n when p - 1 is _PM1_B1-smooth, stage 2 also when p - 1 is
# such a number times one prime up to _PM1_B2.  _rho_brent tries it once,
# when its own steps reach _PM1_GATE, at the start of its round r = 1024,
# so a number that rho splits sooner never pays for it.
_PM1_B1 = 2000
_PM1_B2 = 20000
_PM1_GATE = 2046


@functools.cache
def _pm1_tables() -> tuple[int, int, bytes]:
    """Stage 1's exponent, the product of the largest power up to _PM1_B1
    of every prime up to it (2,878 bits); the largest of those primes; and
    the gaps from it through the primes up to _PM1_B2, one byte each
    (1,959 gaps, all even, none above 52)."""
    exponent = start = last = 1
    gaps = bytearray()
    for p in _sieve(_PM1_B2 + 1):
        if p <= _PM1_B1:
            q = p
            while q * p <= _PM1_B1:
                q *= p
            exponent *= q
            start = p
        else:
            gaps.append(p - last)
        last = p
    return exponent, start, bytes(gaps)


def _pollard_pm1(n: int) -> int:
    """A proper factor of odd composite n by Pollard's p - 1 method, or 1.

    Stage 1 sets a = 2**E mod n for the E of _pm1_tables and returns
    gcd(a - 1, n) at once when it splits n.  Stage 2 walks a**q through
    the primes q in (_PM1_B1, _PM1_B2] by their gaps, two multiplications
    mod n each, and takes one gcd of the product of the a**q - 1.  When
    the gcd is n, every prime of n was found at once, and the answer is 1.
    """
    exponent, q, gaps = _pm1_tables()
    a = pow(2, exponent, n)
    g = math.gcd(a - 1, n)
    if g == 1:
        # step[i] = a**(2 * i), for every gap up to the largest, 52.
        step = [1, a * a % n]
        for _ in range(25):
            step.append(step[-1] * step[1] % n)
        x = pow(a, q, n)
        acc = 1
        for gap in gaps:
            x = x * step[gap >> 1] % n
            acc = acc * (x - 1) % n
        g = math.gcd(acc, n)
    return g if g < n else 1


def _rho_brent(n: int, budget: int) -> tuple[int, int]:
    """A nontrivial factor of odd composite n, and the squaring steps it
    took.  Deterministic: the polynomial increment is stepped through a
    fixed sequence.  Each doubling of r is charged its 2 * r squarings of
    y before it starts, so those never pass budget.  Once the steps reach
    _PM1_GATE, _pollard_pm1 is tried once."""
    steps = 0
    gate = _PM1_GATE
    for c in range(1, 1000):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if steps >= gate:
                gate = math.inf
                d = _pollard_pm1(n)
                if d > 1:
                    return d, steps
            steps += 2 * r
            if steps > budget:
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
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps
    raise DomainError(f"rho factorization failed for {n}")  # pragma: no cover


def _factor_into(n: int, out: dict[int, int], budget: int) -> int:
    """Count the primes of n into out, with at most budget rho steps over
    all splits; return the steps left."""
    if n == 1:
        return budget
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return budget
    d, steps = _rho_brent(n, budget)
    budget = _factor_into(d, out, budget - steps)
    return _factor_into(n // d, out, budget)


# Most bits of a number factor accepts.  Rho's step budget costs more the
# longer the number: on a 2-vCPU VM (Python 3.11) a balanced semiprime
# ends in BoundedSearchError after 0.8 s at 128 bits, 1.3 s at 256, 3.2 s
# at 512 and 8.9 s at 1024 bits.  A larger n raises at once, where trial
# division, the Miller-Rabin test and rho could each take seconds.
FACTOR_BIT_LIMIT = 512


def _check_factor_bits(n: int) -> None:
    """BoundedSearchError if n has more than FACTOR_BIT_LIMIT bits."""
    if n.bit_length() > FACTOR_BIT_LIMIT:
        raise BoundedSearchError(
            f"a number of {n.bit_length()} bits is past the factoring limit "
            f"of {FACTOR_BIT_LIMIT} bits",
            FACTOR_BIT_LIMIT,
        )


def factor(n: int) -> Factorization:
    """Canonical factorization of n >= 1, deterministic for a given n.

    The primes below 1000 come from one gcd with their product, then
    Brent's cycle method with a deterministic parameter schedule splits
    whatever composite remains.  A rho call that has not split its number
    after 2,046 steps tries Pollard's p - 1 once, stage 1 to B1 = 2000
    and stage 2 to B2 = 20000, and goes on when that fails.  All the
    splits share RHO_STEP_LIMIT steps; past them, and for an n of more
    than FACTOR_BIT_LIMIT bits, it raises BoundedSearchError.
    """
    if n < 1:
        raise DomainError("factor requires n >= 1")
    _check_factor_bits(n)
    found: list[tuple[int, int]] = []
    g = math.gcd(n, _SMALL_PRIME_PRODUCT)
    if g > 1:
        # g is squarefree, so once p * p > g what is left of it is prime.
        for p in _SMALL_PRIMES:
            if p * p > g:
                break
            if g % p == 0:
                g //= p
                n, e = _divide_out(n, p)
                found.append((p, e))
        if g > 1:
            n, e = _divide_out(n, g)
            found.append((g, e))
    # n has no prime factor below 1000 now, so below 10**6 it is prime;
    # _factor_into tests a larger n itself.
    if n > 1:
        if n < _SMALL_PRIME_LIMIT * _SMALL_PRIME_LIMIT:
            found.append((n, 1))
        else:
            big: dict[int, int] = {}
            _factor_into(n, big, RHO_STEP_LIMIT)
            found.extend(sorted(big.items()))
    return Factorization(found)


def _divide_out(n: int, p: int) -> tuple[int, int]:
    """(n / p**e, e) for the e = nu_p(n) >= 1 of a prime p dividing n."""
    n //= p
    e = 1
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def _factor_lists(lo: int, hi: int, base: int):
    """(n, factor(n) as a list of (p, e)) for each n in range(lo, hi)
    coprime to base, from one windowed sieve (Crandall and Pomerance,
    "Prime Numbers", section 3.2); callers wrap the lists.  An even base's
    window holds the odd n alone, and each odd prime of the base marks
    its rows as dropped.  Every prime up to D = min(isqrt(hi - 1),
    SIEVE_PRIME_LIMIT) is divided out of the kept rows; a cofactor below
    (D + 1)**2 is prime, and a larger one, past 10**10, goes to
    _factor_into as its row is taken.  The sieve, and the check that
    raises BoundedSearchError past FACTOR_BIT_LIMIT, run at the call.
    """
    if lo < 1 or base < 1:
        raise DomainError("_factor_lists requires lo >= 1 and base >= 1")
    _check_factor_bits(hi - 1)
    shift = 1 - base % 2
    step = 1 + shift
    start = lo | shift
    rest = list(range(start, hi, step))
    size = len(rest)
    found: list[list[tuple[int, int]]] = [[] for _ in rest]
    # start + i is the first multiple of odd p for i = -start % p, and the
    # first odd one is in row (i + (i & 1) * p) // 2 of step 2.  Each odd
    # divisor of the base (at most 62 in a scan) zeroes its rows' rest.
    odd = base // (base & -base)
    for q in range(3, odd + 1, 2):
        if odd % q == 0:
            i = -start % q
            if shift:
                i = (i + (i & 1) * q) >> 1
            rest[i::q] = [0] * len(range(i, size, q))
    depth = min(math.isqrt(hi - 1) if hi > lo else 0, SIEVE_PRIME_LIMIT)
    primes = iter(
        _SMALL_PRIMES
        if depth < _SMALL_PRIME_LIMIT
        else itertools.accumulate(_prime_gaps())
    )
    if shift:
        next(primes)  # the window has no even row
    # Most primes of the table exceed the window and have at most one
    # multiple in it, so a first index past the window skips the prime.
    for p in primes:
        if p > depth:
            break
        i = -start % p
        if shift:
            i = (i + (i & 1) * p) >> 1
        while i < size:
            m = rest[i]
            if m:
                m //= p
                e = 1
                while m % p == 0:
                    m //= p
                    e += 1
                rest[i] = m
                found[i].append((p, e))
            i += p
    # Every prime in a cofactor exceeds every prime sieved out of it.
    prime_below = (depth + 1) ** 2

    def rows():
        for n, m, factors in zip(range(start, hi, step), rest, found):
            if m >= prime_below:
                big = {}
                _factor_into(m, big, RHO_STEP_LIMIT)
                factors.extend(sorted(big.items()))
            elif m > 1:
                factors.append((m, 1))
            elif m == 0:
                continue
            yield n, factors

    return rows()
