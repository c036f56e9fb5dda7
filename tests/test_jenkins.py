"""Product-criterion tests: formula route vs gcd route vs general decider."""

import math
import time
from itertools import combinations, product

import pytest

from midylab import arith, jenkins
from midylab.errors import BoundedSearchError, DomainError, PreconditionError
from midylab.jenkins import (
    jenkins_check,
    jenkins_check_gcd,
    jenkins_decomposition,
    jenkins_instance,
)
from midylab.midy import midy_check_ppl2
from midylab.order import order_mod


class TestInstance:
    def test_derived_fields(self):
        inst = jenkins_instance(10, 3, [(7, 1), (13, 1)])
        assert inst.orders == (6, 6)
        assert inst.block_lengths == (2, 2)
        assert inst.lift_valuations == (1, 1)
        assert inst.modulus == 91

    def test_rejects_prime_without_property(self):
        # |10| mod 11 = 2, so d = 3 is not available at 11
        with pytest.raises(PreconditionError):
            jenkins_instance(10, 3, [(7, 1), (11, 1)])

    def test_rejects_repeats_and_junk(self):
        with pytest.raises(PreconditionError):
            jenkins_instance(10, 3, [(7, 1), (7, 2)])
        with pytest.raises(PreconditionError):
            jenkins_instance(10, 3, [(9, 1)])
        with pytest.raises(PreconditionError):
            jenkins_instance(10, 3, [(7, 0)])
        with pytest.raises(PreconditionError):
            jenkins_instance(10, 1, [(7, 1)])

    def test_each_prime_is_tested_once(self, monkeypatch):
        # The order and the lift are read for a prime already tested:
        # neither factors p nor tests it again past 10**6.
        tested = []
        real = arith.is_prime

        def counting(n):
            tested.append(n)
            return real(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        inst = jenkins_instance(10, 166667, [(1000003, 1)])
        assert tested == [1000003]
        assert inst.orders == (order_mod(10, 1000003),)

    def test_errors_of_the_order_and_the_lift(self):
        with pytest.raises(PreconditionError) as info:
            jenkins_instance(10, 2, [(7, 1), (5, 1)])
        assert str(info.value) == "gcd(10, 5) != 1; order undefined"
        # |-1| mod 3 = 2 would pass the order check; the lift needs b >= 2
        with pytest.raises(DomainError) as info:
            jenkins_instance(-1, 2, [(3, 1)])
        assert str(info.value) == "lift valuation undefined for base < 2"

    def test_the_base_is_checked_before_the_primes(self, monkeypatch):
        # |1| mod 3 = 1, which d = 2 does not divide: a later check would
        # blame the prime.
        def no_test(n):
            raise AssertionError(f"is_prime({n}) was called")

        monkeypatch.setattr(arith, "is_prime", no_test)
        with pytest.raises(DomainError) as info:
            jenkins_instance(1, 2, [(3, 1)])
        assert str(info.value) == "lift valuation undefined for base < 2"

    def test_prime_past_the_factoring_limit(self, monkeypatch):
        # The order mod p factors p - 1, so such a p is refused before
        # is_prime looks at it.
        monkeypatch.setattr(arith, "FACTOR_BIT_LIMIT", 4)
        assert jenkins_instance(10, 2, [(11, 1)]).orders == (2,)

        def no_test(n):
            raise AssertionError(f"is_prime({n}) was called")

        monkeypatch.setattr(arith, "is_prime", no_test)
        for p in (17, 21):
            with pytest.raises(BoundedSearchError) as info:
                jenkins_instance(10, 2, [(p, 1), (11, 1)])
            assert info.value.bound == 4
            assert str(info.value) == (
                "a number of 5 bits is past the factoring limit of 4 bits"
            )


class TestChecks:
    @pytest.mark.parametrize(
        "b,d,pp,want",
        [
            (10, 3, [(7, 1), (13, 1)], True),
            (10, 2, [(11, 1), (101, 1)], False),
            (10, 3, [(13, 5)], True),
            (10, 2, [(11, 3), (101, 2)], False),
        ],
    )
    def test_examples_both_routes(self, b, d, pp, want):
        inst = jenkins_instance(b, d, pp)
        assert jenkins_check(inst) is want
        assert jenkins_check_gcd(inst) is want
        n = inst.modulus
        assert midy_check_ppl2(b, n, d).holds is want

    def test_single_prime_high_power(self):
        inst = jenkins_instance(10, 3, [(13, 5)])
        assert jenkins_check(inst)
        assert midy_check_ppl2(10, 13**5, 3).holds

    def test_huge_exponent_never_builds_the_power(self):
        # 11**(10**7 - m) would take seconds to build; the formula route
        # reads only the block length, so h changes nothing but the input.
        started = time.perf_counter()
        huge = jenkins_check(jenkins_instance(10, 2, [(11, 10**7)]))
        assert time.perf_counter() - started < 1
        assert huge is jenkins_check(jenkins_instance(10, 2, [(11, 1)]))

    def test_modulus_bit_limit(self, monkeypatch):
        # 7 and 13 have 3 and 4 bits: (7, 2), (13, 1) sums to 10.
        monkeypatch.setattr(jenkins, "MODULUS_BIT_LIMIT", 10)
        inst = jenkins_instance(10, 3, [(7, 2), (13, 1)])
        assert inst.modulus == 637
        assert jenkins_check_gcd(inst) is jenkins_check(inst)
        monkeypatch.setattr(jenkins, "MODULUS_BIT_LIMIT", 9)
        with pytest.raises(BoundedSearchError) as info:
            inst.modulus
        assert info.value.bound == 9
        with pytest.raises(BoundedSearchError):
            jenkins_check_gcd(inst)
        # The formula route never builds N.
        assert jenkins_check(inst) is True


class TestDecomposition:
    def test_reconstruction(self):
        for b, d, pp in [
            (10, 3, [(7, 1), (13, 1)]),
            (10, 2, [(11, 1), (101, 1)]),
            (10, 6, [(7, 2), (13, 1)]),
            (2, 4, [(5, 1), (13, 2), (17, 1)]),
        ]:
            inst = jenkins_instance(b, d, pp)
            dec = jenkins_decomposition(inst)
            d_value = 1
            for q, r in dec.d_primes:
                d_value *= q**r
            assert d_value == d
            for j, ((p, h), m, k) in enumerate(
                zip(inst.prime_powers, inst.lift_valuations, inst.block_lengths)
            ):
                z = p ** max(h - m, 0) * k
                rebuilt = inst.d ** dec.c[j] * dec.cofactors[j]
                for (q, _), a in zip(dec.d_primes, dec.alpha[j]):
                    rebuilt *= q**a
                assert rebuilt == z
                # cofactor coprime to every prime of d
                assert all(
                    math.gcd(dec.cofactors[j], q) == 1 for q, _ in dec.d_primes
                )
                # alpha holds no further full copy of d
                assert any(
                    a < r for a, (_, r) in zip(dec.alpha[j], dec.d_primes)
                )

    def test_lift_does_not_touch_d_primes(self):
        # primes of d are below every p_i, so the p-power in z never
        # feeds the d-smooth part
        for b, d, pp in [(10, 6, [(7, 3), (13, 2)]), (2, 4, [(5, 2), (13, 3)])]:
            inst = jenkins_instance(b, d, pp)
            for (p, h), m, k in zip(
                inst.prime_powers, inst.lift_valuations, inst.block_lengths
            ):
                z = p ** max(h - m, 0) * k
                for q, _ in arith.factor(d):
                    assert arith.valuation(q, z) == arith.valuation(q, k)


def eligible_primes(b, d, limit=200):
    out = []
    for p in range(3, limit + 1):
        if arith.is_prime(p) and b % p != 0 and order_mod(b, p) % d == 0:
            out.append(p)
    return out


def sweep_instances(b):
    """Every instance of at most two eligible primes below 60, h in {1, 2},
    for each d in 2..12."""
    for d in range(2, 13):
        primes = eligible_primes(b, d, 60)
        for t in (1, 2):
            for subset in combinations(primes, t):
                for hs in product((1, 2), repeat=t):
                    yield jenkins_instance(b, d, list(zip(subset, hs)))


def exponent_vector_rule(dec):
    """The paper's form of the criterion on a decomposition: the exponent
    of z_j at q_i is c_j * r_i + alpha_j[i], and the property holds iff
    for every j the lcm's exponents exceed z_j's by less than r_i at some
    q_i, that is the quotient is not divisible by d."""
    vectors = [
        [c * r + a for a, (_, r) in zip(alpha, dec.d_primes)]
        for c, alpha in zip(dec.c, dec.alpha)
    ]
    peak = [max(col) for col in zip(*vectors)]
    return all(
        any(mx - e < r for mx, e, (_, r) in zip(peak, vec, dec.d_primes))
        for vec in vectors
    )


class TestEquivalenceSweep:
    @pytest.mark.parametrize("b", [2, 10])
    def test_routes_agree_small(self, b):
        for inst in sweep_instances(b):
            formula = jenkins_check(inst)
            assert formula == jenkins_check_gcd(inst), inst
            assert formula == midy_check_ppl2(b, inst.modulus, inst.d).holds

    @pytest.mark.parametrize("b", [2, 10])
    def test_formula_matches_exponent_vectors(self, b, monkeypatch):
        instances = list(sweep_instances(b))
        want = [exponent_vector_rule(jenkins_decomposition(i)) for i in instances]
        assert True in want and False in want

        def no_factor(n):
            raise AssertionError(f"factor({n}) was called")

        # The formula route reads the block lengths alone; d is never factored.
        monkeypatch.setattr(arith, "factor", no_factor)
        assert [jenkins_check(i) for i in instances] == want

    def test_h_independence_small(self):
        for b, d in [(10, 2), (10, 3), (2, 4)]:
            primes = eligible_primes(b, d, 80)[:4]
            for subset in combinations(primes, 2):
                verdicts = {
                    jenkins_check(jenkins_instance(b, d, list(zip(subset, hs))))
                    for hs in product((1, 2, 3, 4), repeat=2)
                }
                assert len(verdicts) == 1, (b, d, subset)
