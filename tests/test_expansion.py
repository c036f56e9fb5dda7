"""Digit-level oracle tests.

smallest_failing_x decides every numerator by one test on N, in one
modular power; here it is pinned, on every base 2..62, against a literal
implementation that long-divides every x, cuts digit blocks, and checks
divisibility of their sum with big integers, and past N = 10**6 against
the structural deciders.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midylab import expansion, midy
from midylab.errors import BoundedSearchError, PreconditionError
from midylab.expansion import (
    blocks_and_sum,
    period_digits,
    smallest_failing_x,
)
from midylab.midy import (
    midy_check_direct,
    midy_check_ppl2,
    midy_check_ppl3,
    midy_set,
)
from midylab.order import _order_divisors, modulus_profile, order_mod


def units(n):
    return [x for x in range(1, n) if math.gcd(x, n) == 1]


def literal_midy(b: int, N: int, d: int):
    """(verdict, smallest failing x) straight from the definition."""
    L = order_mod(b, N)
    k = L // d
    worst = None
    for x in units(N):
        e = period_digits(x, N, b)
        s = blocks_and_sum(e, d)
        if s.block_sum % (b**k - 1) != 0:
            if worst is None:
                worst = x
    return worst is None, worst


class TestPeriodDigits:
    def test_one_thirteenth(self):
        e = period_digits(1, 13, 10)
        assert e.digits == (0, 7, 6, 9, 2, 3)

    def test_one_seventy_fifth_base_eight(self):
        e = period_digits(1, 75, 8)
        assert e.digits == (0, 0, 6, 6, 4, 7, 2, 0, 1, 5, 5, 1, 6, 4, 0, 3, 3, 2, 3, 5)

    def test_single_step(self):
        assert period_digits(1, 3, 10).digits == (3,)

    def test_leading_zeros_retained(self):
        assert period_digits(1, 13, 10).digits[0] == 0

    @pytest.mark.parametrize(
        "x,n,b",
        [(1, 10, 10), (2, 10, 5), (0, 7, 10), (7, 7, 10), (3, 9, 10), (1, 7, 1)],
    )
    def test_preconditions(self, x, n, b):
        with pytest.raises(PreconditionError):
            period_digits(x, n, b)

    def test_length_is_order_full_small(self):
        for b in (2, 3, 8, 10, 16):
            for n in range(2, 61):
                if math.gcd(n, b) != 1:
                    continue
                for x in units(n):
                    assert len(period_digits(x, n, b).digits) == order_mod(b, n)

    def test_length_is_order_x1_up_to_500(self):
        for b in (2, 3, 8, 10, 16):
            for n in range(2, 501):
                if math.gcd(n, b) != 1:
                    continue
                assert len(period_digits(1, n, b).digits) == order_mod(b, n)

    def test_value_identity(self):
        # the period digits, read as an integer A, satisfy A*N = x*(b^L - 1)
        for b in (2, 3, 8, 10, 16):
            for n in range(2, 130):
                if math.gcd(n, b) != 1:
                    continue
                for x in units(n):
                    e = period_digits(x, n, b)
                    a = 0
                    for digit in e.digits:
                        a = a * b + digit
                    assert a * n == x * (b ** len(e.digits) - 1)

    def test_minimality(self):
        # no proper divisor of the length is itself a period
        for b, n in [(10, 13), (8, 75), (2, 341), (16, 255)]:
            digits = period_digits(1, n, b).digits
            L = len(digits)
            for p in range(1, L):
                if L % p == 0 and digits[:p] * (L // p) == digits:
                    pytest.fail(f"period of 1/{n} base {b} reducible to {p}")

    def test_cyclic_shift(self):
        # multiplying x by b rotates the period left by one digit
        for b, n in [(10, 13), (8, 75), (10, 49), (3, 122)]:
            for x in units(n)[:12]:
                d1 = period_digits(x, n, b).digits
                d2 = period_digits(x * b % n, n, b).digits
                assert d2 == d1[1:] + d1[:1]

    @given(
        st.sampled_from([2, 3, 8, 10, 16]),
        st.integers(2, 400),
        st.integers(1, 399),
    )
    @settings(max_examples=200)
    def test_remainder_returns_random(self, b, n, x):
        if math.gcd(n, b) != 1 or x >= n or math.gcd(x, n) != 1:
            return
        e = period_digits(x, n, b)
        assert all(0 <= digit < b for digit in e.digits)
        assert len(e.digits) == order_mod(b, n)

    def test_period_past_the_limit(self, monkeypatch):
        want = {n: period_digits(1, n, 10) for n in range(41, 200) if math.gcd(n, 10) == 1}
        # Periods up to the limit come out whole; longer ones raise.
        monkeypatch.setattr(expansion, "PERIOD_DIGIT_LIMIT", 40)
        for n, e in want.items():
            if len(e.digits) <= 40:
                assert period_digits(1, n, 10) == e, n
            else:
                with pytest.raises(BoundedSearchError) as info:
                    period_digits(1, n, 10)
                assert info.value.bound == 40
        # An n at or below the limit never reaches it: its period is shorter.
        assert len(period_digits(1, 29, 10).digits) == 28


def digits_value(digits, b: int) -> int:
    """The value of digits in base b, most significant first."""
    value = 0
    for digit in digits:
        value = value * b + digit
    return value


class TestBlocksAndSum:
    def test_known_blocks(self):
        e = period_digits(1, 13, 10)
        s = blocks_and_sum(e, 3)
        assert s.blocks == (7, 69, 23)
        assert s.block_sum == 99

    def test_block_sum_multiple(self):
        e = period_digits(1, 75, 8)
        s = blocks_and_sum(e, 4)
        assert s.blocks == (
            int("00664", 8),
            int("72015", 8),
            int("51640", 8),
            int("33235", 8),
        )
        assert s.block_sum == 65534 == 2 * (8**5 - 1)

    def test_identity_split(self):
        e = period_digits(1, 13, 10)
        s = blocks_and_sum(e, 1)
        assert s.blocks == (76923,)
        assert s.block_sum == 76923

    def test_indivisible_count_rejected(self):
        e = period_digits(1, 13, 10)
        with pytest.raises(PreconditionError):
            blocks_and_sum(e, 4)

    def test_block_count_times_length(self):
        e = period_digits(1, 75, 8)
        for d in (1, 2, 4, 5, 10, 20):
            s = blocks_and_sum(e, d)
            assert s.count * s.length == 20
            assert len(s.blocks) == d
            assert all(blk < 8**s.length for blk in s.blocks)

    def test_blocks_match_the_digits(self):
        # The blocks come from the long-division remainders; each must be
        # the base-b value of its k digits of the period.
        for b in range(2, 63):
            for n in range(2, 120):
                if math.gcd(b, n) != 1:
                    continue
                for x in {1, n - 1}:
                    e = period_digits(x, n, b)
                    L = len(e.digits)
                    for d in (d for d in range(1, L + 1) if L % d == 0):
                        k = L // d
                        want = tuple(
                            digits_value(e.digits[j * k : (j + 1) * k], b)
                            for j in range(d)
                        )
                        s = blocks_and_sum(e, d)
                        assert (s.count, s.length, s.blocks) == (d, k, want), (b, n, x, d)
                        assert s.block_sum == sum(want)


class TestMidyDirect:
    @pytest.mark.parametrize(
        "b,n,d,want", [(10, 13, 3, True), (8, 75, 5, False), (10, 13, 6, True)]
    )
    def test_examples(self, b, n, d, want):
        assert (smallest_failing_x(b, n, d) is None) is want

    def test_matches_literal_definition(self):
        # the remainder-sum shortcut must agree with digit-block sums, on
        # every base the CLI accepts
        cases = [(b, n) for b in range(2, 63) for n in range(2, 40)]
        cases += [(b, n) for b in (2, 3, 8, 10, 16) for n in range(40, 140)]
        for b, n in cases:
            if math.gcd(n, b) != 1:
                continue
            L = order_mod(b, n)
            for d in range(2, L + 1):
                if L % d:
                    continue
                want, worst = literal_midy(b, n, d)
                assert (worst is None) == want, (b, n, d)
                assert smallest_failing_x(b, n, d) == worst, (b, n, d)

    def test_block_sum_identity(self):
        # S = (b**k - 1) * T / N where T sums every k-th remainder
        for b, n in [(10, 13), (8, 75), (10, 21), (2, 35)]:
            L = order_mod(b, n)
            for d in [d for d in range(2, L + 1) if L % d == 0]:
                k = L // d
                for x in units(n):
                    s = blocks_and_sum(period_digits(x, n, b), d)
                    T = sum(x * pow(b, j * k, n) % n for j in range(1, d + 1))
                    assert s.block_sum * n == (b**k - 1) * T

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            smallest_failing_x(10, 13, 1)
        with pytest.raises(PreconditionError):
            smallest_failing_x(10, 13, 4)
        with pytest.raises(PreconditionError):
            smallest_failing_x(10, 15, 2)

    def test_certificate_is_smallest(self):
        x = smallest_failing_x(8, 75, 5)
        assert x == 1
        # verify it really fails by definition
        s = blocks_and_sum(period_digits(1, 75, 8), 5)
        assert s.block_sum % (8**4 - 1) != 0

    def test_holds_returns_none(self):
        assert smallest_failing_x(10, 13, 3) is None

    def test_agrees_with_the_deciders_past_a_million(self):
        # The oracle takes any N the profile takes: on every base, for
        # seeded N in [10**6, 10**12), its verdict on each divisor of the
        # order is midy_set's, ppl2's and ppl3's.  Each divisor is decided
        # on one profile, as midy-check does; the public calls, which
        # factor N again, on the smallest and largest.
        rng = random.Random(24)
        verdicts = set()
        for b in range(2, 63):
            for _ in range(4):
                n = rng.randrange(10**6, 10**12)
                if math.gcd(n, b) != 1:
                    continue
                members = set(midy_set(b, n).members)
                profile = modulus_profile(b, n)
                divisors = _order_divisors(profile)
                for d in divisors:
                    want = d in members
                    for decide in (midy._ppl2, midy._ppl3, midy._direct):
                        assert decide(profile, d).holds is want, (decide, b, n, d)
                    verdicts.add(want)
                for d in (divisors[0], divisors[-1]):
                    want = d in members
                    assert (smallest_failing_x(b, n, d) is None) is want, (b, n, d)
                    for check in (midy_check_ppl2, midy_check_ppl3, midy_check_direct):
                        assert check(b, n, d).holds is want, (check, b, n, d)
        assert verdicts == {True, False}
