"""Prime-power structure checks and the constructive prime progression."""

import math

import numtheory as nt
import pytest

from midylab import arith, progression
from midylab.errors import BoundedSearchError, PreconditionError
from midylab.midy import midy_check_direct, midy_check_ppl2
from midylab.order import order_mod, order_mod_naive
from midylab.progression import (
    _next_prime_in_progression,
    _pocklington_step,
    midy_prime_v1_check,
    prime_power_midy_structure,
    prime_power_structure,
    prime_progression,
    smallest_midy_witness,
)


class TestStructureCheck:
    @pytest.mark.parametrize(
        "b,n,q,v,want",
        [(10, 13, 3, 1, True), (10, 21, 3, 1, True), (10, 7 * 13, 3, 1, True)],
    )
    def test_examples(self, b, n, q, v, want):
        assert prime_power_midy_structure(b, n, q, v) is want

    def test_order_too_small(self):
        with pytest.raises(PreconditionError):
            prime_power_midy_structure(10, 9, 3, 1)

    def test_pure_prime_power_routed(self):
        # N = 27: order of 10 is 3, so v = 1 applies; 27 carries 3 cubed
        assert order_mod(10, 27) == 3
        assert prime_power_midy_structure(10, 27, 3, 1) is False
        assert midy_check_ppl2(10, 27, 3).holds is False

    def test_bad_arguments_raise_alike(self):
        # One check of b, q and v behind every entry: a base below 2, a
        # composite q and v = 0 each raise the same message from all.
        cases = {
            "base must be >= 2": (1, 3, 1),
            "9 is not prime": (10, 9, 1),
            "v must be >= 1": (10, 3, 0),
        }
        for message, (b, q, v) in cases.items():
            calls = [
                (prime_power_structure, (b, 13, q, v)),
                (prime_power_midy_structure, (b, 13, q, v)),
                (smallest_midy_witness, (b, q, v)),
                (prime_progression, (b, q, v, 1)),
            ]
            if v == 1:
                calls.append((midy_prime_v1_check, (b, 13, q)))
            for entry, args in calls:
                with pytest.raises(PreconditionError) as info:
                    entry(*args)
                assert str(info.value) == message, entry.__name__

    def test_structure_record(self):
        s = prime_power_structure(10, 21, 3, 1)
        assert s.q_exponent == 1
        assert s.others == ((7, 1),)
        assert s.m == 2  # 10**1 - 1 = 9 = 3**2
        assert s.order_valuations == (1,)  # |10| mod 7 = 6

    def test_matches_general_decider(self):
        for b in (2, 10):
            for q in (2, 3, 5):
                for v in (1, 2):
                    d = q**v
                    for n in range(2, 500):
                        if math.gcd(b, n) != 1:
                            continue
                        if order_mod(b, n) % d != 0:
                            continue
                        assert (
                            prime_power_midy_structure(b, n, q, v)
                            == midy_check_ppl2(b, n, d).holds
                        ), (b, n, q, v)


class TestPrimeV1Check:
    @pytest.mark.parametrize(
        "b,n,q,want",
        [(10, 13, 3, True), (8, 75, 5, False), (10, 21, 3, True)],
    )
    def test_examples(self, b, n, q, want):
        assert midy_prime_v1_check(b, n, q) is want

    def test_square_divisor_rejects(self):
        # 9 divides 63 and 3 divides the order of 10 mod 63
        assert order_mod(10, 63) % 3 == 0
        assert midy_prime_v1_check(10, 63, 3) is False
        assert midy_check_ppl2(10, 63, 3).holds is False

    def test_order_precondition(self):
        with pytest.raises(PreconditionError):
            midy_prime_v1_check(10, 11, 3)  # order 2, no factor 3

    def test_matches_general_decider(self):
        for b in (2, 10):
            for q in (2, 3, 5):
                for n in range(2, 500):
                    if math.gcd(b, n) != 1:
                        continue
                    if order_mod(b, n) % q != 0:
                        continue
                    assert (
                        midy_prime_v1_check(b, n, q)
                        == midy_check_ppl2(b, n, q).holds
                    ), (b, n, q)


class TestSmallestWitness:
    @pytest.mark.parametrize(
        "b,q,v,want", [(10, 3, 1, 7), (10, 2, 1, 7), (2, 3, 1, 7)]
    )
    def test_examples(self, b, q, v, want):
        assert smallest_midy_witness(b, q, v) == want

    def test_witness_is_prime_congruent_one(self):
        for b in (2, 10):
            for q in (2, 3, 5, 7):
                for v in (1, 2):
                    w = smallest_midy_witness(b, q, v)
                    assert arith.is_prime(w)
                    assert w % q**v == 1

    def test_no_smaller_candidate(self):
        # everything below the witness either lacks the order factor or
        # fails the decider
        w = smallest_midy_witness(10, 3, 2)
        d = 9
        for n in range(2, w):
            if math.gcd(n, 10) != 1:
                continue
            ok = order_mod(10, n) % d == 0 and midy_check_ppl2(10, n, d).holds
            assert not ok, n

    def test_bound_exhaustion(self):
        with pytest.raises(BoundedSearchError) as info:
            smallest_midy_witness(10, 3, 4, bound=50)
        assert info.value.bound == 50

    def test_even_prime_witness_four(self):
        # 4 keeps block count 2 by the even-prime allowance exactly when
        # b == 3 (mod 4); it is the smallest witness when 3 has no even
        # order, i.e. b != 2 (mod 3).
        fours = [b for b in range(2, 63) if smallest_midy_witness(b, 2, 1) == 4]
        assert fours == [3, 7, 15, 19, 27, 31, 39, 43, 51, 55]
        for b in fours:
            assert midy_check_direct(b, 4, 2).holds, b


class TestProgression:
    def test_examples(self):
        assert prime_progression(10, 3, 1, 2).primes == (7, 19)
        assert prime_progression(10, 2, 1, 2).primes == (7, 17)

    def test_single_step_is_witness(self):
        t = prime_progression(10, 5, 1, 1)
        assert t.primes == (smallest_midy_witness(10, 5, 1),)
        assert t.moduli == (5,)

    def test_trace_invariants(self):
        for b, q, v in [(10, 3, 1), (2, 2, 1), (10, 2, 2), (2, 5, 1), (3, 2, 1)]:
            trace = prime_progression(b, q, v, 5)
            primes = trace.primes
            moduli = trace.moduli
            assert len(primes) == 5
            assert list(primes) == sorted(set(primes))
            assert all(arith.is_prime(p) for p in primes)
            assert all(p % q**v == 1 for p in primes)
            assert all(p % m == 1 for m, p in trace.steps)
            assert list(moduli) == sorted(set(moduli))
            # each step modulus is the least q-power of q**v above the
            # previous prime
            for i in range(1, 5):
                assert moduli[i] > primes[i - 1]
                assert moduli[i] // q**v <= primes[i - 1]
            # every found prime genuinely carries the property
            for m, p in trace.steps:
                assert order_mod(b, p) % m == 0
                assert midy_check_ppl2(b, p, m).holds

    def test_minimality_of_each_step(self):
        trace = prime_progression(10, 3, 1, 3)
        for m, p in trace.steps[1:]:
            for candidate in range(m + 1, p, m):
                if math.gcd(candidate, 10) != 1 or not arith.is_prime(candidate):
                    continue
                ok = (
                    order_mod(10, candidate) % m == 0
                    and midy_check_ppl2(10, candidate, m).holds
                )
                assert not ok, (m, candidate)

    def test_first_prime_is_at_most_bound(self):
        with pytest.raises(BoundedSearchError) as info:
            prime_progression(10, 3, 4, 1, bound=162)
        assert info.value.bound == 162
        assert prime_progression(10, 3, 4, 1, bound=163).steps == ((81, 163),)

    def test_later_step_exhaustion_reports_callers_bound(self):
        # (19, 163, 17497): the third prime is candidate j = 24 of 729
        assert prime_progression(2, 3, 2, 2, bound=19).primes == (19, 163)
        with pytest.raises(BoundedSearchError) as info:
            prime_progression(2, 3, 2, 3, bound=19)
        assert info.value.bound == 19
        assert prime_progression(2, 3, 2, 3, bound=24).primes[-1] == 17497

    def test_count_validation(self):
        with pytest.raises(PreconditionError):
            prime_progression(10, 3, 1, 0)

    def test_count_limit(self, monkeypatch):
        monkeypatch.setattr(progression, "PROGRESSION_COUNT_LIMIT", 2)
        assert prime_progression(10, 2, 1, 2).primes == (7, 17)

        def no_search(*args):
            raise AssertionError("a step was searched")

        monkeypatch.setattr(progression, "_next_prime_in_progression", no_search)
        with pytest.raises(BoundedSearchError) as info:
            prime_progression(10, 2, 1, 3)
        assert info.value.bound == 2

    def test_bit_limit(self, monkeypatch):
        # 3 * (2**2).bit_length() = 9 and 2 * (3**2).bit_length() = 8.
        monkeypatch.setattr(progression, "PROGRESSION_BIT_LIMIT", 9)
        assert len(prime_progression(10, 2, 2, 3).primes) == 3
        assert len(prime_progression(10, 3, 2, 2).primes) == 2

        def no_search(*args):
            raise AssertionError("a step was searched")

        monkeypatch.setattr(progression, "_next_prime_in_progression", no_search)
        for q, v, count in [(2, 2, 4), (3, 2, 3), (2, 9, 1), (3, 10**12, 1)]:
            with pytest.raises(BoundedSearchError) as info:
                prime_progression(10, q, v, count)
            assert info.value.bound == 9

    def test_bit_limit_comes_before_the_primality_test(self, monkeypatch):
        def no_test(n):
            raise AssertionError(f"is_prime({n}) was called")

        monkeypatch.setattr(arith, "is_prime", no_test)
        q = 2**100 - 1  # composite, but refused by size first
        with pytest.raises(BoundedSearchError) as info:
            prime_progression(10, q, 5, 1)
        assert info.value.bound == progression.PROGRESSION_BIT_LIMIT
        assert str(info.value) == (
            "count 1 times the bits of (a 100-bit q)**5 is past the limit of 400"
        )
        with pytest.raises(BoundedSearchError) as info:
            prime_progression(10, 2**61 - 1, 7, 1)
        assert str(info.value) == (
            "count 1 times the bits of 2305843009213693951**7 is past the "
            "limit of 400"
        )
        monkeypatch.undo()
        # Inside the limit the argument checks still come first.
        with pytest.raises(PreconditionError, match="is not prime"):
            prime_progression(10, 2**100 - 1, 1, 1)
        with pytest.raises(PreconditionError, match="v must be >= 1"):
            prime_progression(10, 3, 0, 1)
        with pytest.raises(PreconditionError, match="v must be >= 1"):
            prime_progression(10, 3, -2, 1)

    def test_default_limits_keep_100_primes_for_small_moduli(self):
        for qv in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            assert 100 * qv.bit_length() <= progression.PROGRESSION_BIT_LIMIT
        assert progression.PROGRESSION_COUNT_LIMIT == 100


def _q_part(q, n):
    """q**nu_q(n)."""
    F = 1
    while n % (F * q) == 0:
        F *= q
    return F


class TestPocklingtonStep:
    """True: P is proven prime with modulus in its order; False: P is not
    the answer; None: P is the answer exactly when it is prime."""

    def test_proven_steps_check_out_with_pow_and_gcd(self):
        proven = past_bound = 0
        for b, q, v, count in [(10, 3, 1, 40), (60, 5, 1, 30), (3, 2, 1, 30)]:
            for modulus, P in prime_progression(b, q, v, count).steps:
                if P < 1000 or not _pocklington_step(b, q, modulus, P):
                    continue
                # Pocklington with the base as witness and F = the q-part
                # of P - 1: b**(P-1) == 1, gcd(b**((P-1)/q) - 1, P) == 1
                # and F * F > P make every prime of P exceed sqrt(P).
                x = pow(b, (P - 1) // q, P)
                F = _q_part(q, P - 1)
                assert pow(b, P - 1, P) == 1
                assert x != 1 and math.gcd(x - 1, P) == 1
                assert F * F > P
                proven += 1
                past_bound += P >= arith.MILLER_RABIN_PROVEN_BOUND
        assert proven >= 60 and past_bound >= 30

    def test_fermat_pseudoprime_with_x_one_is_undecided(self):
        # 1729 = 7 * 13 * 19: 2**864 == 1 (mod 1729), so x == 1, but the
        # order of 2 is 36, so z = 2**27 != 1 and is_prime must decide
        assert pow(2, 1728 // 2, 1729) == 1
        assert pow(2, 27, 1729) != 1
        assert _pocklington_step(2, 2, 2, 1729) is None
        # modulus 64 is all of the 2-part of 1728: z = 2**(27 * 32) == 1
        assert _pocklington_step(2, 2, 64, 1729) is False

    def test_small_q_part_is_not_a_proof(self):
        # 1027 = 13 * 79 passes Fermat to base 56 with gcd(x - 1, P) == 1,
        # but F = 2 and F * F <= P, so nothing is proven
        x = pow(56, 1026 // 2, 1027)
        assert pow(56, 1026, 1027) == 1 and math.gcd(x - 1, 1027) == 1
        assert _pocklington_step(56, 2, 2, 1027) is None

    def test_fermat_failure_is_composite(self):
        # 1003 = 17 * 59; 2**1002 != 1 (mod 1003), while z = 2**501 != 1
        assert pow(2, 1002, 1003) != 1
        assert pow(2, 501, 1003) != 1
        assert _pocklington_step(2, 2, 2, 1003) is False

    def test_verdicts_are_sound(self):
        # Every P == 1 (mod q) below 20000 and every modulus q**s dividing
        # P - 1: the verdict, with None read as is_prime(P), is the answer
        # (P prime and modulus | ord_P(b)); True also puts all of the
        # q-part F of P - 1 in the order of a prime P.
        for q in (2, 3, 5):
            for P in range(q + 1, 20000, q):
                F = _q_part(q, P - 1)
                prime = arith.is_prime(P)
                for b in (2, 3, 10, 56):
                    if math.gcd(b, P) != 1:
                        continue
                    order = order_mod(b, P) if prime else None
                    modulus = q
                    while F % modulus == 0:
                        verdict = _pocklington_step(b, q, modulus, P)
                        answer = prime and order % modulus == 0
                        if verdict is None:
                            assert prime == answer, (b, q, modulus, P)
                        else:
                            assert verdict == answer, (b, q, modulus, P)
                        if verdict:
                            assert order % F == 0, (b, q, modulus, P)
                        modulus *= q

    def test_order_rule(self):
        # For a prime P and q**s | P - 1, with q**a the q-part of
        # j = (P - 1) / q**s: q**s divides ord_P(b) exactly when
        # z = b**((P-1)/q**(a+1)) != 1, and a False verdict is z == 1.
        for P in range(3, 20000, 2):
            if not arith.is_prime(P):
                continue
            for b in (2, 3, 10, 56):
                if b % P == 0:
                    continue
                order = order_mod_naive(b, P)
                for q in (2, 3, 5):
                    F = _q_part(q, P - 1)
                    modulus = q
                    while F % modulus == 0:
                        z = pow(b, (P - 1) * modulus // (F * q), P)
                        assert (z != 1) == (order % modulus == 0), (b, q, modulus, P)
                        verdict = _pocklington_step(b, q, modulus, P)
                        assert (verdict is not False) == (z != 1), (b, q, modulus, P)
                        modulus *= q

    def test_matches_reference_scan(self):
        # The reference is perfbench's textbook is_prime and order, which
        # share no code with midylab.
        def first_hit(b, modulus, last):
            for j in range(1, last + 1):
                P = j * modulus + 1
                if math.gcd(P, b) == 1 and nt.is_prime(P):
                    if nt.order(b, {P: 1}) % modulus == 0:
                        return j
            return None

        # The moduli 2..7, whose answer may be 3, 5 or 7 itself, and powers
        # of each q up to 13, so that modulus % 210 takes many classes of
        # the wheel; 211, 419 and the answer's j, less one or not, end
        # inside a turn of it.  1009 and 2026 = 2 * 1013 carry a prime above
        # 997, which only the gcd with the base rules out.  Those answers
        # all lie in the first turn; a base that is a q**t-th power needs
        # q**t | j, which puts its answer in a later turn (j = 242..1372).
        moduli = [(2, 2), (3, 3), (2, 4), (5, 5), (7, 7), (2, 2**10), (5, 5**5)] + [
            (q, q**s) for q in (2, 3, 5, 7, 11, 13) for s in (2, 3, 4, 7)
        ]
        cases = [(q, m, b) for q, m in moduli for b in (*range(2, 63), 1009, 2026)]
        cases += [(2, 2, 2**64), (3, 3, 10**243), (5, 5**3, 3**125),
                  (7, 7**3, 2**343), (11, 11, 2**121), (13, 13, 2**169)]
        for q, modulus, b in cases:
            hit = first_hit(b, modulus, 1500)
            lasts = {211, 419} | ({hit - 1, hit} if hit else set())
            for last in sorted(lasts):
                want = hit * modulus + 1 if hit and hit <= last else None
                try:
                    got = _next_prime_in_progression(b, q, modulus, last, last)
                except BoundedSearchError:
                    got = None
                assert got == want, (b, q, modulus, last)
        # every step of a progression is the reference scan's first hit
        for q, v in [(2, 1), (3, 1), (5, 1), (7, 2)]:
            for b in range(2, 63):
                for modulus, P in prime_progression(b, q, v, 8).steps:
                    assert first_hit(b, modulus, P // modulus) == P // modulus, (b, q, v)
