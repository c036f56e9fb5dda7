"""Integer kernel tests against brute-force oracles."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midylab import arith
from midylab.errors import BoundedSearchError, DomainError
from midylab.order import modulus_profile


def gcd_brute(a: int, b: int) -> int:
    """Largest integer dividing both, by scanning all candidates."""
    if a == 0:
        return b
    if b == 0:
        return a
    return max(g for g in range(1, min(a, b) + 1) if a % g == 0 and b % g == 0)


def is_prime_brute(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def pow_mod_brute(b: int, e: int, m: int) -> int:
    r = 1 % m
    for _ in range(e):
        r = r * b % m
    return r


class TestGcd:
    """math.gcd, which the kernel uses, against a brute-force scan."""

    def test_identity_with_zero(self):
        assert math.gcd(0, 7) == 7
        assert math.gcd(7, 0) == 7
        assert math.gcd(0, 0) == 0

    def test_hand_examples(self):
        assert math.gcd(48, 75) == 3
        # 32767 = 8**5 - 1 shares no factor with 75
        assert math.gcd(32767, 75) == 1
        assert gcd_brute(32767, 75) == 1

    def test_against_brute_force_grid(self):
        for a in range(0, 60):
            for b in range(0, 60):
                assert math.gcd(a, b) == gcd_brute(a, b)

    @given(st.integers(0, 2000), st.integers(0, 2000))
    def test_divides_both_and_is_greatest(self, a, b):
        g = math.gcd(a, b)
        if a or b:
            assert a % g == 0 and b % g == 0
            # every common divisor divides g
            for c in range(1, min(a or b, b or a) + 1):
                if a % c == 0 and b % c == 0:
                    assert g % c == 0
        else:
            assert g == 0


class TestPowMod:
    """Three-argument pow, which the kernel uses, against repeated products."""

    def test_order_witnesses(self):
        # 10 has order 6 mod 13 and 8 has order 20 mod 75
        assert pow(10, 6, 13) == 1
        assert pow(8, 20, 75) == 1

    def test_zero_exponent(self):
        assert pow(5, 0, 9) == 1
        assert pow(5, 0, 1) == 0

    def test_against_naive_grid(self):
        for b in range(0, 25):
            for e in range(0, 25):
                for m in range(1, 25):
                    assert pow(b, e, m) == pow_mod_brute(b, e, m)

    @given(st.integers(0, 200), st.integers(0, 200), st.integers(1, 200))
    def test_against_naive(self, b, e, m):
        assert pow(b, e, m) == pow_mod_brute(b, e, m)


class TestGcdPowMinusOne:
    @given(st.integers(2, 30), st.integers(1, 40), st.integers(1, 500))
    def test_matches_materialized_power(self, b, e, m):
        assert arith.gcd_pow_minus_one(b, e, m) == math.gcd(b**e - 1, m)

    def test_large_exponent_stays_cheap(self):
        # 10**600000 - 1 is far too big to build; the reduced form is not.
        # 6 divides 600000, so the power is 1 mod 13 and the gcd is 13.
        assert arith.gcd_pow_minus_one(10, 600000, 13) == 13
        assert arith.gcd_pow_minus_one(10, 600001, 13) == 1


class TestValuation:
    @pytest.mark.parametrize(
        "p,n,want",
        [(3, 99, 2), (13, 999999, 1), (7, 1, 0), (2, 96, 5), (5, 75, 2)],
    )
    def test_examples(self, p, n, want):
        assert arith.valuation(p, n) == want

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            arith.valuation(3, 0)

    @given(st.sampled_from([2, 3, 5, 7, 11, 13, 97]), st.integers(1, 10**6))
    def test_exact_divisibility(self, p, n):
        e = arith.valuation(p, n)
        assert n % p**e == 0
        assert n % p ** (e + 1) != 0


class TestIsPrime:
    def test_examples(self):
        assert arith.is_prime(2)
        assert not arith.is_prime(75)
        assert arith.is_prime(101)

    def test_against_trial_division(self):
        for n in range(0, 3000):
            assert arith.is_prime(n) == is_prime_brute(n)

    @pytest.mark.parametrize(
        "n,want",
        [
            (2147483647, True),  # 2**31 - 1
            (2147483649, False),
            (1000000007, True),
            (25326001, False),  # strong pseudoprime to bases 2, 3, 5
            (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
            (2**61 - 1, True),
            (2**67 - 1, False),
        ],
    )
    def test_known_values(self, n, want):
        assert arith.is_prime(n) == want

    def test_proven_flag(self):
        assert arith.is_prime_proven(2**64)
        assert not arith.is_prime_proven(10**25)

    def test_matches_a_sieve_below_two_million(self):
        limit = 2 * 10**6
        flags = bytearray([1]) * limit
        flags[0:2] = b"\x00\x00"
        for i in range(2, math.isqrt(limit - 1) + 1):
            if flags[i]:
                flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
        wrong = [n for n in range(limit) if arith.is_prime(n) != flags[n]]
        assert wrong == []


class TestMillerRabinTiers:
    """Each tier's bound psi_k is the least strong pseudoprime to the
    first k prime bases; is_prime must give it more bases than k."""

    @pytest.mark.parametrize(
        "psi,k", arith._MR_TIERS, ids=[f"psi{k}" for _, k in arith._MR_TIERS]
    )
    def test_bound_passes_its_bases_and_is_composite(self, psi, k):
        assert arith._miller_rabin(psi, arith._MR_BASES[:k])
        # is_prime gives psi the next tier's bases, and a base that fails
        # the strong test proves psi composite.
        assert arith.is_prime(psi) is False

    def test_missing_tiers_share_their_bound(self):
        # psi_7 = psi_8 and psi_9 = psi_10 = psi_11.
        assert arith._miller_rabin(341_550_071_728_321, arith._MR_BASES[:8])
        assert arith._miller_rabin(3_825_123_056_546_413_051, arith._MR_BASES[:11])

    def test_twelve_bases_are_no_proof_at_psi12(self):
        # 399165290221 * 798330580441; base 41 witnesses it.
        n = 318665857834031151167461
        assert n < arith.MILLER_RABIN_PROVEN_BOUND
        assert arith._miller_rabin(n, arith._MR_BASES[:12])
        assert arith.is_prime(n) is False
        assert arith.factor(n).factors == ((399165290221, 1), (798330580441, 1))

    def test_tiers_increase_up_to_the_proven_bound(self):
        bounds = [psi for psi, _ in arith._MR_TIERS]
        assert bounds == sorted(bounds)
        assert bounds[-1] == arith.MILLER_RABIN_PROVEN_BOUND
        assert len(arith._MR_BASES + arith._EXTRA_BASES) == 25


class TestFactor:
    def test_examples(self):
        assert arith.factor(75).factors == ((3, 1), (5, 2))
        assert arith.factor(999999).factors == ((3, 3), (7, 1), (11, 1), (13, 1), (37, 1))
        assert arith.factor(1).factors == ()

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            arith.factor(0)

    def test_exhaustive_reconstruction(self):
        # every n up to 50000: the product rebuilds n and each base is prime
        for n in range(1, 50001):
            f = arith.factor(n)
            assert f.value == n
            assert all(arith.is_prime(p) for p, _ in f)

    def test_large_composites(self):
        for n in [2**61 - 1, 10**12 + 39, 600851475143, (2**31 - 1) * 104729]:
            f = arith.factor(n)
            assert f.value == n
            assert all(arith.is_prime(p) for p, _ in f)

    def test_valuation_accessor(self):
        f = arith.factor(360)
        assert f.valuation(2) == 3
        assert f.valuation(3) == 2
        assert f.valuation(7) == 0

    def test_ordering_enforced(self):
        # Building a Factorization checks nothing; the order and the
        # exponents are enforced where a caller supplies one, in
        # modulus_profile (tests/test_order.py has every entry).
        unsorted = arith.Factorization(((5, 1), (3, 1)))
        assert unsorted.value == 15
        with pytest.raises(DomainError):
            modulus_profile(2, 15, n_factors=unsorted)
        with pytest.raises(DomainError):
            modulus_profile(2, 1, n_factors=arith.Factorization(((3, 0),)))

    @given(st.integers(1, 10**9))
    @settings(max_examples=300)
    def test_reconstruction_random(self, n):
        f = arith.factor(n)
        assert f.value == n
        assert all(arith.is_prime(p) for p, _ in f)


class TestFactorBitLimit:
    def test_limit_is_checked_before_any_division(self, monkeypatch):
        monkeypatch.setattr(arith, "FACTOR_BIT_LIMIT", 16)
        assert arith.factor(2**16 - 1).factors == ((3, 1), (5, 1), (17, 1), (257, 1))
        monkeypatch.setattr(arith, "_SMALL_PRIMES", None)  # trial division fails
        with pytest.raises(BoundedSearchError) as info:
            arith.factor(2**16)
        assert info.value.bound == 16
        assert str(info.value) == (
            "a number of 17 bits is past the factoring limit of 16 bits"
        )

    def test_sieve_window_is_checked_before_it_is_built(self, monkeypatch):
        # The scan's sieve refuses a window whose top is past the limit,
        # with factor's message, before it lists the window or sieves it.
        # The check runs when _factor_lists is called, not at the first
        # row taken from it.
        monkeypatch.setattr(arith, "FACTOR_BIT_LIMIT", 16)
        window = list(arith._factor_lists(2**16 - 4, 2**16, 1))
        assert window[-1] == (2**16 - 1, [(3, 1), (5, 1), (17, 1), (257, 1)])
        monkeypatch.setattr(arith, "_SMALL_PRIMES", None)  # sieving fails
        with pytest.raises(BoundedSearchError) as info:
            arith._factor_lists(2**16 - 4, 2**16 + 1, 1)
        assert info.value.bound == 16
        assert str(info.value) == (
            "a number of 17 bits is past the factoring limit of 16 bits"
        )

    def test_default_limit(self):
        assert (3**323).bit_length() == arith.FACTOR_BIT_LIMIT == 512
        assert arith.factor(3**323).factors == ((3, 323),)
        with pytest.raises(BoundedSearchError):
            arith.factor(2**512)


class TestRhoBudget:
    # 1000003 * 1000033 has no factor below 1000; Brent's rho splits it
    # with r doubled up to 256, for 2 * (1 + 2 + ... + 256) = 1022 steps.
    N = 1000003 * 1000033

    def test_default_limit_leaves_room(self):
        assert arith.RHO_STEP_LIMIT >= 2**20
        assert arith.factor(self.N).factors == ((1000003, 1), (1000033, 1))

    def test_exact_budget_is_enough(self, monkeypatch):
        monkeypatch.setattr(arith, "RHO_STEP_LIMIT", 1022)
        assert arith.factor(self.N).factors == ((1000003, 1), (1000033, 1))

    def test_one_step_short_raises(self, monkeypatch):
        monkeypatch.setattr(arith, "RHO_STEP_LIMIT", 1021)
        with pytest.raises(BoundedSearchError) as info:
            arith.factor(self.N)
        assert info.value.bound == 1021
        assert str(self.N) in str(info.value)

    def test_leftover_is_tested_once(self, monkeypatch):
        # _factor_into tests N, then each of rho's two factors; factor
        # itself tests nothing.
        calls = []
        is_prime = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
        assert arith.factor(self.N).factors == ((1000003, 1), (1000033, 1))
        assert len(calls) == 3

    def test_small_factors_need_no_rho(self, monkeypatch):
        monkeypatch.setattr(arith, "RHO_STEP_LIMIT", 0)
        assert arith.factor(999999).value == 999999
        assert arith.factor(997 * 1000003).factors == ((997, 1), (1000003, 1))
        with pytest.raises(BoundedSearchError):
            arith.factor(self.N)

    def test_one_budget_for_every_split(self, monkeypatch):
        # Rho splits 1000099 off in 1022 steps, then N in 1022 more, so
        # one factor call needs 2044 steps though no split needs over 1022.
        n = 1000099 * self.N
        want = ((1000003, 1), (1000033, 1), (1000099, 1))
        monkeypatch.setattr(arith, "RHO_STEP_LIMIT", 2044)
        assert arith.factor(n).factors == want
        for limit in (2043, 1022):
            monkeypatch.setattr(arith, "RHO_STEP_LIMIT", limit)
            with pytest.raises(BoundedSearchError) as info:
                arith.factor(n)
            assert info.value.bound == limit
            assert str(self.N) in str(info.value)

    def test_rows_of_a_window_have_a_budget_each(self, monkeypatch):
        # Five rows of this window reach rho, N and one more for 1022
        # steps each and 2,934 steps in all; each row is one factor call.
        monkeypatch.setattr(arith, "RHO_STEP_LIMIT", 1022)
        lo, hi = self.N - 30, self.N + 30
        assert factor_range(lo, hi) == factor_coprime(lo, hi)


class TestPollardPm1:
    """Pollard's p - 1 method, which _rho_brent tries once after
    _PM1_GATE = 2046 of its own steps.  With the budget at the gate, rho
    alone splits none of these numbers, so factor succeeds only through
    p - 1."""

    def stage1_splits(self, n):
        exponent, _, _ = arith._pm1_tables()
        return math.gcd(pow(2, exponent, n) - 1, n) != 1

    def factor_at_the_gate(self, monkeypatch, n):
        monkeypatch.setattr(arith, "RHO_STEP_LIMIT", arith._PM1_GATE)
        return arith.factor(n)

    def test_tables(self):
        exponent, start, gaps = arith._pm1_tables()
        assert exponent == math.prod(
            p ** int(math.log(arith._PM1_B1 + 0.5, p))
            for p in range(2, arith._PM1_B1 + 1) if is_prime_brute(p)
        )
        assert exponent.bit_length() == 2878
        primes = list(itertools.accumulate(gaps, initial=start))
        assert primes == [
            p for p in range(1999, arith._PM1_B2 + 1) if is_prime_brute(p)
        ]
        assert len(gaps) == 1959 and max(gaps) == 52

    def test_stage_1(self, monkeypatch):
        p = 2 * 239 * 383 * 421 * 809 + 1
        q = 2 * 5 * 13 * 15326929 + 1
        assert is_prime_brute(p) and is_prime_brute(q)
        assert self.stage1_splits(p * q)
        assert arith._pollard_pm1(p * q) == p
        assert self.factor_at_the_gate(monkeypatch, p * q).factors == ((q, 1), (p, 1))

    def test_stage_2(self, monkeypatch):
        # p - 1 has one prime, 9661, between _PM1_B1 and _PM1_B2.
        p = 2 * 281 * 659 * 887 * 9661 + 1
        q = 2**4 * 3 * 12655417 + 1
        assert is_prime_brute(p) and is_prime_brute(q)
        assert not self.stage1_splits(p * q)
        assert arith._pollard_pm1(p * q) == p
        assert self.factor_at_the_gate(monkeypatch, p * q).factors == ((q, 1), (p, 1))

    def test_both_smooth(self, monkeypatch):
        # Stage 1 finds both primes at once: the gcd is n itself.
        p = 2 * 11 * 293 * 359 * 409 + 1
        q = 2 * 829 * 919 * 929 + 1
        assert is_prime_brute(p) and is_prime_brute(q)
        assert arith._pollard_pm1(p * q) == 1
        assert arith.factor(p * q).factors == ((p, 1), (q, 1))
        with pytest.raises(BoundedSearchError):
            self.factor_at_the_gate(monkeypatch, p * q)

    def test_neither_smooth(self, monkeypatch):
        p = 2**2 * 7 * 19566907 + 1
        q = 2 * 3 * 5 * 62147999 + 1
        assert is_prime_brute(p) and is_prime_brute(q)
        assert arith._pollard_pm1(p * q) == 1
        assert arith.factor(p * q).factors == ((p, 1), (q, 1))
        with pytest.raises(BoundedSearchError):
            self.factor_at_the_gate(monkeypatch, p * q)

    def test_tried_once_per_rho_call_past_the_gate(self, monkeypatch):
        calls = []
        pm1 = arith._pollard_pm1
        monkeypatch.setattr(arith, "_pollard_pm1", lambda n: calls.append(n) or pm1(n))
        # Rho splits TestRhoBudget.N in 1022 steps, and 1000003 * 1000037
        # in 2046, in its last round before the gate.
        for n in (TestRhoBudget.N, 1000003 * 1000037):
            assert arith.factor(n).value == n
        assert calls == []
        # Rho needs 65,534 steps here, and tries p - 1 once on the way.
        n = (2**2 * 7 * 19566907 + 1) * (2 * 3 * 5 * 62147999 + 1)
        assert arith.factor(n).value == n
        assert calls == [n]


def factor_range(lo, hi, base=1):
    return [(n, arith.Factorization(f)) for n, f in arith._factor_lists(lo, hi, base)]


def factor_coprime(lo, hi, base=1):
    """What factor gives for each n in [lo, hi) coprime to base."""
    return [(n, arith.factor(n)) for n in range(lo, hi) if math.gcd(n, base) == 1]


class TestFactorRange:
    """One sieve per window (arith._factor_lists, which the scan reads)
    gives what factor gives for each n coprime to the base; base 1 keeps
    every n."""

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (1, 3000),
            (2, 50001),
            (10**12 - 500, 10**12 + 500),
            (10**18 - 500, 10**18 + 500),
            # isqrt(hi - 1) on either side of the largest small prime
            (997**2 - 300, 997**2 + 300),
            (1009**2 - 300, 1009**2 + 300),
            # isqrt(hi - 1) crosses 1000, where the table replaces the
            # small primes
            (10**6 - 300, 10**6 + 300),
            # the largest table prime squared, and the depth reaching
            # SIEVE_PRIME_LIMIT
            (99991**2 - 300, 99991**2 + 300),
            (10**10 - 500, 10**10 + 500),
        ],
    )
    def test_matches_factor(self, lo, hi):
        assert factor_range(lo, hi) == factor_coprime(lo, hi)

    def test_random_windows(self):
        rng = random.Random(20)
        for _ in range(20):
            lo = rng.randrange(1, 10**15)
            hi = lo + rng.randrange(1, 100)
            assert factor_range(lo, hi) == factor_coprime(lo, hi), (lo, hi)

    def test_empty_and_bad_windows(self):
        assert factor_range(5, 5) == []
        assert factor_range(4, 5, 10) == []
        assert factor_range(1, 2) == [(1, arith.factor(1))]
        with pytest.raises(DomainError):
            factor_range(0, 10)
        with pytest.raises(DomainError):
            factor_range(1, 10, 0)

    @pytest.mark.parametrize(
        "lo,hi", [(10**6 - 200, 10**6 + 200), (99991**2 - 300, 99991**2 + 300),
                  (10**10 - 600, 10**10)],
    )
    def test_window_below_ten_to_the_ten_needs_no_rho(self, monkeypatch, lo, hi):
        # With hi - 1 < 10**10 the sieve reaches isqrt(hi - 1), so every
        # cofactor is prime and none reaches a primality test or rho.
        want = factor_coprime(lo, hi)

        def fail(n, out, budget):
            raise AssertionError(f"_factor_into({n})")

        monkeypatch.setattr(arith, "_factor_into", fail)
        assert factor_range(lo, hi) == want


# The windows of TestFactorRangeBases: one whose depth, isqrt(299) = 17,
# is below the base primes 19..61, one across 10**10, where the depth
# reaches SIEVE_PRIME_LIMIT, and one near 10**12, where cofactors go on to
# rho.
BASE_WINDOWS = [(1, 300), (10**10 - 150, 10**10 + 150), (10**12 - 150, 10**12 + 150)]


@functools.cache
def window_factors(lo, hi):
    return factor_coprime(lo, hi)


@pytest.fixture
def factor_into_calls(monkeypatch):
    """The first argument of every _factor_into call, rho's splits too."""
    seen = []
    factor_into = arith._factor_into

    def recording(n, out, budget):
        seen.append(n)
        return factor_into(n, out, budget)

    monkeypatch.setattr(arith, "_factor_into", recording)
    return seen


class TestFactorRangeBases:
    @pytest.mark.parametrize("base", range(2, 63))
    def test_rows_coprime_to_the_base(self, base):
        for lo, hi in BASE_WINDOWS:
            want = [(n, f) for n, f in window_factors(lo, hi) if math.gcd(n, base) == 1]
            assert factor_range(lo, hi, base) == want, (lo, hi)

    def test_no_dropped_row_reaches_rho(self, factor_into_calls):
        # Base 10 near 10**12: every number _factor_into gets, the top
        # cofactor of a row or a factor rho split off, has only primes
        # above the window's length, so it divides at most one row.  Those
        # rows are the ones coprime to 10 whose cofactor is past the
        # sieve's reach; of the dropped rows, more than 20 would have been.
        lo, hi = 10**12 - 256, 10**12 + 256
        want = factor_coprime(lo, hi, 10)
        reach = (arith.SIEVE_PRIME_LIMIT + 1) ** 2
        big = [n for n in range(lo, hi) if cofactor(n) >= reach]
        seen = factor_into_calls
        seen.clear()  # of the factor calls above
        assert factor_range(lo, hi, 10) == want
        rows = {n for n in range(lo, hi) for m in seen if n % m == 0}
        assert len(seen) >= len(rows) > 20
        assert rows == {n for n in big if math.gcd(n, 10) == 1}
        assert len(big) - len(rows) > 20

    def test_rows_come_as_they_are_factored(self, factor_into_calls):
        # The division pass runs at the call; each row's cofactor is
        # factored when that row is taken.
        lo, hi = 10**12 - 256, 10**12 + 256
        kept = len(factor_coprime(lo, hi, 10))
        seen = factor_into_calls
        seen.clear()  # of the factor calls above
        rows = arith._factor_lists(lo, hi, 10)
        assert seen == []
        taken = 0
        for n, _ in rows:
            taken += 1
            if seen:
                break
        assert n % seen[0] == 0
        assert taken < kept


def cofactor(n):
    """What is left of n once its primes below SIEVE_PRIME_LIMIT are out."""
    for p, e in arith.factor(n):
        if p < arith.SIEVE_PRIME_LIMIT:
            n //= p**e
    return n


class TestSievePrimes:
    def test_table_is_the_primes_below_the_limit(self):
        limit = arith.SIEVE_PRIME_LIMIT
        flags = bytearray([1]) * limit
        flags[0] = flags[1] = 0
        for i in range(2, math.isqrt(limit) + 1):
            if flags[i]:
                for j in range(i * i, limit, i):
                    flags[j] = 0
        table = list(itertools.accumulate(arith._prime_gaps()))
        assert table == [i for i in range(limit) if flags[i]]
        assert len(table) == 9592
        assert list(arith._SMALL_PRIMES) == table[:168]

    def test_import_does_not_build_the_table(self):
        # A window below 10**6 sieves by the small primes alone.
        src = os.path.dirname(os.path.dirname(os.path.abspath(arith.__file__)))
        code = (
            "import midylab.cli; from midylab import arith; "
            "list(arith._factor_lists(999000, 1000000, 10)); "
            "print(arith._prime_gaps.cache_info().currsize)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"
