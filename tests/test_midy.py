"""Structural decider tests: cross-validation and certificates."""

import math

import pytest

from midylab import arith, midy, order
from midylab.errors import (
    DomainError,
    HypothesisNotApplicableError,
    MidylabError,
    PreconditionError,
)
from midylab.expansion import _failing_x, smallest_failing_x
from midylab.midy import (
    OracleCertificate,
    PrimeCertificate,
    guel_triple,
    midy_check_direct,
    midy_check_ppl2,
    midy_check_ppl3,
    midy_set,
)
from midylab.order import _order_mod_prime, order_mod


class TestPpl2:
    @pytest.mark.parametrize(
        "b,n,d,want",
        [(10, 13, 2, True), (8, 75, 10, False), (8, 75, 4, True)],
    )
    def test_examples(self, b, n, d, want):
        assert midy_check_ppl2(b, n, d).holds is want

    def test_certificate_contents(self):
        v = midy_check_ppl2(8, 75, 10)
        assert v.certificate == PrimeCertificate(p=3, nu_n=1, nu_d=0)

    def test_certificate_reverifies(self):
        for b, n, d in [(8, 75, 10), (8, 75, 5), (10, 11 * 101, 2), (2, 9, 2)]:
            v = midy_check_ppl2(b, n, d)
            if v.holds:
                continue
            c = v.certificate
            k = order_mod(b, n) // d
            assert n % c.p == 0
            assert pow(b, k, c.p) == 1  # p divides b**k - 1
            assert arith.valuation(c.p, n) == c.nu_n
            assert arith.valuation(c.p, d) == c.nu_d
            assert c.nu_n > c.nu_d

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            midy_check_ppl2(10, 13, 1)
        with pytest.raises(PreconditionError):
            midy_check_ppl2(10, 13, 5)
        with pytest.raises(PreconditionError):
            midy_check_ppl2(10, 15, 2)


class TestMismatchedFactorization:
    def test_rejected(self):
        # 21 = 3 * 7 has the set (3, 6); trusting factor(7) added d = 2.
        wrong = arith.factor(7)
        with pytest.raises(DomainError):
            midy_set(10, 21, n_factors=wrong)
        with pytest.raises(DomainError):
            midy_check_ppl2(10, 21, 2, n_factors=wrong)
        with pytest.raises(DomainError):
            midy_check_ppl3(10, 21, 2, n_factors=wrong)

    def test_correct_factors_accepted(self):
        nf = arith.factor(21)
        assert midy_set(10, 21, n_factors=nf).members == (3, 6)
        assert midy_check_ppl2(10, 21, 2, n_factors=nf).holds is False
        assert midy_check_ppl3(10, 21, 3, n_factors=nf).holds is True


class TestErrorTypes:
    def test_deciders_raise_alike(self):
        # The oracle takes its order from order_mod, so N < 1 is a
        # DomainError and a shared factor a PreconditionError everywhere.
        def raised(fn, *args):
            try:
                fn(*args)
            except MidylabError as exc:
                return type(exc)
            return None

        checks = (midy_check_direct, midy_check_ppl2, midy_check_ppl3)
        for b in (1, 2, 3, 10):
            for n in range(-6, 40):
                whole = raised(midy_set, b, n)
                # A d that is valid whenever the order exists, so only
                # (b, n) can be at fault; an order of 1 has no such d.
                d = 2 if whole else max(2, midy_set(b, n).order)
                kinds = {raised(check, b, n, d) for check in checks}
                assert len(kinds) == 1, (b, n, kinds)
                if whole:
                    assert kinds == {whole}, (b, n, kinds)
        # A d of 1, or one that does not divide the order 6, breaks one
        # rule, which every decider of one d words alike.
        for d in (1, 4, 5):
            messages = set()
            for check in (*checks, guel_triple):
                with pytest.raises(PreconditionError) as info:
                    check(10, 13, d)
                messages.add(str(info.value))
            assert len(messages) == 1, (d, messages)


class TestPpl3:
    @pytest.mark.parametrize(
        "b,n,d,want",
        [(10, 13, 3, True), (8, 75, 5, False), (10, 13, 6, True)],
    )
    def test_examples(self, b, n, d, want):
        assert midy_check_ppl3(b, n, d).holds is want

    def test_agrees_with_ppl2(self):
        for b in (2, 10):
            for n in range(2, 300):
                if math.gcd(b, n) != 1:
                    continue
                L = order_mod(b, n)
                for d in range(2, L + 1):
                    if L % d:
                        continue
                    assert (
                        midy_check_ppl3(b, n, d).holds
                        == midy_check_ppl2(b, n, d).holds
                    ), (b, n, d)

    def test_witness_prime_always_divides_d(self):
        # scanning the primes of the order or the primes of d makes no
        # difference: a witness q outside d would need a negative slack
        for b in (2, 10):
            for n in range(2, 200):
                if math.gcd(b, n) != 1:
                    continue
                L = order_mod(b, n)
                for d in (x for x in range(2, L + 1) if L % x == 0):
                    for p, nu_n in arith.factor(n):
                        if nu_n <= arith.valuation(p, d):
                            continue
                        op = _order_mod_prime(b % p, p)[1]
                        order_qs = {
                            q
                            for q in arith.factor(L).primes()
                            if arith.valuation(q, op)
                            > arith.valuation(q, L) - arith.valuation(q, d)
                        }
                        d_qs = {
                            q
                            for q in arith.factor(d).primes()
                            if arith.valuation(q, op)
                            > arith.valuation(q, L) - arith.valuation(q, d)
                        }
                        assert order_qs == d_qs


class TestDirectVerdict:
    def test_wraps_oracle(self):
        v = midy_check_direct(8, 75, 5)
        assert not v.holds
        assert v.method == "direct"
        assert v.certificate == OracleCertificate(x=1)
        assert midy_check_direct(10, 13, 3).holds


class TestMidySet:
    @pytest.mark.parametrize(
        "b,n,want",
        [(10, 13, (2, 3, 6)), (8, 75, (4, 20)), (10, 3, ())],
    )
    def test_examples(self, b, n, want):
        assert midy_set(b, n).members == want

    def test_fields(self):
        s = midy_set(8, 75)
        assert (s.base, s.modulus, s.order) == (8, 75, 20)

    def test_members_divide_order_ascending(self):
        for b, n in [(10, 13), (8, 75), (2, 341), (10, 271)]:
            s = midy_set(b, n)
            assert list(s.members) == sorted(s.members)
            assert all(d > 1 and s.order % d == 0 for d in s.members)

    def test_upward_closure(self):
        for b in (2, 10):
            for n in range(2, 300):
                if math.gcd(b, n) != 1:
                    continue
                s = midy_set(b, n)
                members = set(s.members)
                for d1 in members:
                    for d2 in range(d1, s.order + 1, d1):
                        if s.order % d2 == 0:
                            assert d2 in members, (b, n, d1, d2)

    def test_full_order_membership_k1_rule(self):
        # d equal to the order forces k = 1.  A trivial gcd(b - 1, n) is
        # always sufficient; on odd n membership is exactly the valuation
        # comparison against the order; on prime n the plain gcd test is a
        # biconditional.
        for b in (2, 3, 8, 10, 16):
            for n in range(3, 250):
                if math.gcd(b, n) != 1:
                    continue
                L = order_mod(b, n)
                if L == 1:
                    continue
                member = L in midy_set(b, n).members
                if math.gcd(b - 1, n) == 1:
                    assert member, (b, n)
                if n % 2 == 1:
                    expected = all(
                        arith.valuation(p, n) <= arith.valuation(p, L)
                        for p, _ in arith.factor(math.gcd(b - 1, n))
                    )
                    assert member == expected, (b, n)
                if arith.is_prime(n):
                    assert member == (math.gcd(b - 1, n) == 1), (b, n)

    def test_prime_has_every_divisor_of_its_order(self):
        # prime_progression's search rests on this: N = P has one prime,
        # of order L, and no k = L/d with d > 1 is a multiple of L.
        primes = [p for p in range(2, 1000) if arith.is_prime(p)]
        sets = 0
        for b in range(2, 63):
            for p in primes:
                if b % p == 0:
                    continue
                s = midy_set(b, p)
                want = tuple(d for d in range(2, s.order + 1) if s.order % d == 0)
                assert s.members == want, (b, p)
                sets += 1
        assert sets == 10149

    def test_full_order_member_despite_nontrivial_gcd(self):
        # even moduli can keep the property beyond the naive gcd test:
        # every one-digit block sum of x/4 in base 3 is exactly 2
        assert math.gcd(3 - 1, 10) == 2
        assert 4 in midy_set(3, 10).members
        assert smallest_failing_x(3, 10, 4) is None
        assert smallest_failing_x(3, 4, 2) is None
        assert 2 in midy_set(3, 4).members

    def test_non_coprime_rejected(self):
        with pytest.raises(PreconditionError):
            midy_set(10, 35)
        # N < 1 is a DomainError, as in order_mod and midy_check_ppl2.
        with pytest.raises(DomainError):
            midy_set(10, 0)


class TestEvenPrime:
    """The even prime is decided by a power of two, like the odd ones."""

    def test_odd_order_keeps_no_member(self):
        # L = 3 is odd, so no block count carries the 2 of N = 38.
        assert midy_set(7, 38) == (7, 38, 3, ())

    def test_matches_the_oracle_on_every_base(self):
        # Only even N reach the even prime, and only odd bases are coprime
        # to them; criterion 10 covers odd N.  ppl2 and ppl3 read the same
        # 2-adic rule, so both answer to the digit-level oracle here.
        moduli, mismatches = 0, []
        for b in range(3, 63, 2):
            for n in range(2, 1500, 2):
                if math.gcd(b, n) != 1:
                    continue
                moduli += 1
                profile = order.modulus_profile(b, n)
                divisors = order._order_divisors(profile)
                want = tuple(d for d in divisors if _failing_x(profile, d) is None)
                ppl3 = tuple(d for d in divisors if midy._ppl3(profile, d).holds)
                if midy_set(b, n).members != want or ppl3 != want:
                    mismatches.append((b, n))
        assert (moduli, mismatches) == (18220, [])


class TestAgainstOracle:
    def test_three_way_small(self):
        for b in (3, 8, 16):
            for n in range(2, 120):
                if math.gcd(b, n) != 1:
                    continue
                L = order_mod(b, n)
                for d in range(2, L + 1):
                    if L % d:
                        continue
                    direct = smallest_failing_x(b, n, d) is None
                    assert midy_check_ppl2(b, n, d).holds == direct, (b, n, d)
                    assert midy_check_ppl3(b, n, d).holds == direct, (b, n, d)


class TestGuelTriple:
    @pytest.mark.parametrize(
        "b,n,d,want",
        [
            (10, 13, 6, (True, True, True)),
            (8, 75, 5, (False, False, False)),
            (10, 13, 2, (True, True, True)),
        ],
    )
    def test_examples(self, b, n, d, want):
        assert guel_triple(b, n, d) == want

    def test_hypothesis_gate(self):
        # nu_3(21) = 1 does not exceed nu_3(3) = 1, so the premise fails
        with pytest.raises(HypothesisNotApplicableError):
            guel_triple(10, 21, 3)
        # distinct from a malformed call, which is a plain precondition error
        with pytest.raises(PreconditionError):
            guel_triple(10, 21, 4)

    def test_components_always_agree(self):
        for b in (2, 10):
            for n in range(2, 250):
                if math.gcd(b, n) != 1:
                    continue
                L = order_mod(b, n)
                for d in range(2, L + 1):
                    if L % d:
                        continue
                    try:
                        s1, s2, s3 = guel_triple(b, n, d)
                    except HypothesisNotApplicableError:
                        continue
                    assert s1 == s2 == s3, (b, n, d)


class TestOneBlockCount:
    """Deciding one d reads the primes of the order, never its divisors."""

    @pytest.fixture
    def no_divisors(self, monkeypatch):
        def refuse(profile):
            raise AssertionError("listed the divisors of the order")

        monkeypatch.setattr(order, "_order_divisors", refuse)
        monkeypatch.setattr(midy, "_order_divisors", refuse)

    @pytest.mark.parametrize(
        "b,n,d,want",
        [(10, 13, 6, True), (8, 75, 5, False), (3, 4, 2, True), (10, 21, 2, False)],
    )
    def test_deciders(self, no_divisors, b, n, d, want):
        assert midy_check_ppl2(b, n, d).holds is want
        assert midy_check_ppl3(b, n, d).holds is want
        assert midy_check_direct(b, n, d).holds is want
        assert guel_triple(b, n, d)[1] is want

    def test_order_with_a_million_divisors(self, no_divisors):
        # The primes 7..199: a 268-bit N whose order mod 10 has 1,290,240
        # divisors.
        n = math.prod(p for p in range(7, 200) if arith.is_prime(p))
        L = order_mod(10, n)
        for d, want in [(2, False), (L // 2, True), (L // 13, False), (L, True)]:
            ppl2 = midy_check_ppl2(10, n, d)
            assert ppl2.holds is want
            assert midy_check_ppl3(10, n, d) == ppl2._replace(method="ppl3")
