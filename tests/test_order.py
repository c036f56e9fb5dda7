"""Multiplicative order tests: lifting rule vs naive successive powers."""

import hashlib
import io
import math
import sys

import pytest

from midylab import arith, cli, order
from midylab.errors import BoundedSearchError, DomainError, PreconditionError
from midylab.jenkins import jenkins_check_gcd, jenkins_instance
from midylab.midy import guel_triple, midy_check_ppl2, midy_check_ppl3, midy_set
from midylab.order import (
    ModulusProfile,
    _order_divisors,
    _order_exponents,
    _order_mod_prime,
    _profile,
    lift_valuation,
    modulus_profile,
    order_mod,
    order_mod_naive,
)
from midylab.progression import (
    prime_power_midy_structure,
    prime_power_structure,
    prime_progression,
)


def naive_order(b: int, n: int) -> int:
    r = b % n
    k = 1
    while r != 1:
        r = r * b % n
        k += 1
    return k


def carmichael(n: int) -> int:
    """Group exponent mod n, by brute force over all units."""
    lam = 1
    for a in range(1, n):
        if math.gcd(a, n) == 1:
            o = naive_order(a, n)
            lam = lam * o // math.gcd(lam, o)
    return lam


class TestOrderMod:
    @pytest.mark.parametrize("b,n,want", [(10, 13, 6), (8, 75, 20), (10, 1, 1)])
    def test_examples(self, b, n, want):
        assert order_mod(b, n) == want

    def test_non_coprime_rejected(self):
        with pytest.raises(PreconditionError):
            order_mod(10, 14)

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            order_mod(10, 0)

    def test_matches_naive_scan(self):
        for n in range(2, 400):
            for b in (2, 3, 7, 10, 16, 23):
                if math.gcd(b, n) == 1:
                    assert order_mod(b, n) == naive_order(b, n), (b, n)

    def test_divides_group_exponent(self):
        for n in range(2, 120):
            lam = carmichael(n)
            for b in range(2, 30):
                if math.gcd(b, n) == 1:
                    assert lam % order_mod(b, n) == 0

    def test_lcm_over_coprime_split(self):
        for n1 in range(2, 60):
            for n2 in range(2, 60):
                if math.gcd(n1, n2) != 1:
                    continue
                for b in (2, 10):
                    if math.gcd(b, n1 * n2) != 1:
                        continue
                    o1, o2 = order_mod(b, n1), order_mod(b, n2)
                    assert order_mod(b, n1 * n2) == o1 * o2 // math.gcd(o1, o2)

    def test_accepts_precomputed_factors(self):
        nf = arith.factor(225)
        assert order_mod(2, 225, n_factors=nf) == order_mod(2, 225)

    def test_mismatched_factors_rejected(self):
        with pytest.raises(DomainError):
            order_mod(10, 21, n_factors=arith.factor(7))


def order_prime_power(b: int, p: int, t: int) -> int:
    """The order of b mod p**t as modulus_profile reports it."""
    return modulus_profile(b, p**t).per_prime[0][2]


class TestOrderPrimePower:
    @pytest.mark.parametrize(
        "b,p,t,want", [(10, 3, 2, 1), (10, 3, 3, 3), (2, 7, 2, 21)]
    )
    def test_examples(self, b, p, t, want):
        assert order_prime_power(b, p, t) == want
        assert order_prime_power(b, p, t) == naive_order(b, p**t)

    def test_lifting_matches_naive(self):
        # odd primes: exact agreement between the lifting rule and the scan
        for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
            for b in range(2, 51):
                if b % p == 0:
                    continue
                t = 1
                while p**t <= 20000 and t <= 4:
                    assert order_prime_power(b, p, t) == naive_order(b, p**t), (
                        b,
                        p,
                        t,
                    )
                    t += 1

    def test_two_power_route(self):
        for b in range(3, 60, 2):
            for t in range(1, 12):
                assert order_prime_power(b, 2, t) == naive_order(b, 2**t), (b, t)

    def test_divisor_of_base_rejected(self):
        with pytest.raises(PreconditionError):
            order_prime_power(10, 5, 2)

    def test_degenerate_base_one(self):
        assert order_prime_power(1, 7, 3) == 1


class TestLiftValuation:
    def test_hand_values(self):
        # 10**1 - 1 = 9 = 3**2 and 2**3 - 1 = 7
        assert lift_valuation(10, 3) == 2
        assert lift_valuation(2, 7) == 1
        # wieferich pair: 2**364 == 1 mod 1093**2
        assert lift_valuation(2, 1093) == 2

    def test_matches_direct_valuation(self):
        for p in (3, 5, 7, 11, 13):
            for b in range(2, 40):
                if b % p == 0:
                    continue
                op = naive_order(b, p)
                assert lift_valuation(b, p) == arith.valuation(p, b**op - 1)


class TestModulusProfile:
    def test_structure(self):
        # |8| mod 3 = 2, |8| mod 5 = 4 and |8| mod 25 = 20.
        assert modulus_profile(8, 75) == ModulusProfile(
            base=8,
            modulus=75,
            factors=arith.factor(75),
            order=20,
            per_prime=((3, 1, 2, 2), (5, 2, 20, 4)),
            order_factors=((2, 1), (2, 2)),
        )

    def test_against_naive_orders(self):
        for n in range(1, 400):
            for b in (2, 3, 10, 61):
                if math.gcd(b, n) != 1:
                    continue
                prof = modulus_profile(b, n)
                assert prof.factors == arith.factor(n)
                assert prof.order == order_mod_naive(b, n)
                assert [(p, t) for p, t, _, _ in prof.per_prime] == list(prof.factors)
                for p, t, opt, op in prof.per_prime:
                    assert opt == naive_order(b, p**t)
                    assert op == naive_order(b, p)

    def test_precomputed_factors(self):
        nf = arith.factor(360)
        assert modulus_profile(7, 360, n_factors=nf) == modulus_profile(7, 360)
        with pytest.raises(DomainError):
            modulus_profile(7, 360, n_factors=arith.factor(180))

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError):
            modulus_profile(10, 15)
        with pytest.raises(DomainError):
            modulus_profile(10, 0)


def _scan_csv(b: int, end: int) -> str:
    """The CSV of scan --base b --from 1 --to end, one midy_set per row."""
    return "n,base,order,midy_set\n" + "".join(
        f"{n},{b},{r.order},{';'.join(map(str, r.members))}\n"
        for n in range(1, end + 1)
        if math.gcd(b, n) == 1
        for r in [midy_set(b, n)]
    )


class TestMemoDeterminism:
    def test_results_identical_cold_and_warm(self):
        # A profile built on a table that already holds the orders of its
        # primes equals one built cold, and leaves the table as it was.
        warm = {}
        for b in (2, 10, 23):
            warm.clear()
            for n in (3 * 7 * 13 * 101, 7**2 * 13, 101**2, 2**5 * 13):
                if math.gcd(b, n) != 1:
                    continue
                cold = modulus_profile(b, n)
                _profile(b, n, arith.factor(n), warm)
                table = dict(warm)
                assert _profile(b, n, arith.factor(n), warm) == cold
                assert warm == table
        assert 2 not in warm

    def test_order_mod_prime_keeps_no_state(self):
        # The same residue asked again, after another, gives the same tuple:
        # its order and the order's factorization.
        p = 101
        first = {b: _order_mod_prime(b, p) for b in (2, 10)}
        for b in (2, 10, 2, 10):
            flat = _order_mod_prime(b, p)
            assert flat == first[b]
            assert flat[0] == naive_order(b, p)
            assert math.prod(q**e for q, e in zip(flat[1::2], flat[2::2])) == flat[0]

    def test_a_full_table_is_cleared_and_the_scan_keeps_its_bytes(self, monkeypatch):
        # A scan's order table is cleared many times over at a limit of 64,
        # and the scans print their pinned bytes at jobs 1 and 2 (the
        # forked workers inherit the limit).
        monkeypatch.setattr(cli, "_SCAN_ORDER_LIMIT", 64)
        starts = []
        real = cli._scan_row

        def recording(b, n, factors, fmt, orders):
            starts.append(len(orders))
            return real(b, n, factors, fmt, orders)

        for argv, want in (
            (
                ["--base", "10", "--from", "2", "--to", "50000"],
                "3ad7921d8e73e020d264cd49e02cc4d81a6d67b794560eddc75cc916db535b1c",
            ),
            (
                ["--base", "7", "--from", "1000000000001", "--to", "1000000001000",
                 "--format", "json"],
                "2f495c8b6addc2c03494156d7f4f8d8d17100e00a48d918b14614e23843baeaa",
            ),
        ):
            for jobs in ("1", "2"):
                monkeypatch.setattr(cli, "_scan_row", recording)
                starts.clear()
                got = io.StringIO()
                monkeypatch.setattr(sys, "stdout", got)
                assert cli.main(["scan", *argv, "--jobs", jobs]) == 0
                assert hashlib.sha256(got.getvalue().encode()).hexdigest() == want
                if jobs == "1":
                    # Each row starts below the limit, and a row pops one
                    # order at most, so larger drops are clears.
                    assert starts and max(starts) < 64
                    assert sum(a > c + 1 for a, c in zip(starts, starts[1:])) > 10

    def test_even_moduli_never_factor_one(self, monkeypatch):
        # p = 2 takes its order from the doubling scan, so only 96 and
        # p - 1 = 2 of its odd prime 3 are factored.
        seen = []
        real = arith.factor

        def counting(n):
            seen.append(n)
            return real(n)

        monkeypatch.setattr(arith, "factor", counting)
        midy_set(7, 96)
        assert seen == [96, 2]


class TestScanOrderTable:
    """A scan keeps one table of orders mod primes per process, and drops
    the order at each prime that no later row is divisible by."""

    @pytest.fixture
    def tables(self, monkeypatch):
        # The order table of every scan task cli._chunks makes.
        seen = []
        chunks = cli._chunks

        def recording(*args):
            for task in chunks(*args):
                seen.append(task[-1])
                yield task

        monkeypatch.setattr(cli, "_chunks", recording)
        return seen

    @pytest.mark.parametrize("b,m", [(10, 3), (7, 2), (6, 5)])
    def test_orders_no_later_row_reads_are_dropped(self, b, m, tables, monkeypatch):
        # m is the least integer above 1 coprime to b, so m * p is the
        # first row past p that p divides: no p with m * p > 3000 is left.
        # Row 1 has no prime, and its line comes first.
        want = _scan_csv(b, 3000)
        assert want.startswith(f"n,base,order,midy_set\n1,{b},1,\n")
        got = io.StringIO()
        monkeypatch.setattr(sys, "stdout", got)
        assert cli.main(["scan", "--base", str(b), "--from", "1", "--to", "3000"]) == 0
        assert got.getvalue() == want
        # 12 chunks, one table.
        assert len(tables) == 12
        assert all(table is tables[0] for table in tables)
        left = sorted(tables[0])
        assert left and left[-1] * m <= 3000

    def test_scans_in_one_process_print_the_bytes_of_fresh_ones(self, monkeypatch):
        # Base 10, then 7, then 10 again: no order of one scan reaches
        # the next, so each prints the rows midy_set gives one N at a time.
        for b in (10, 7, 10):
            got = io.StringIO()
            monkeypatch.setattr(sys, "stdout", got)
            assert cli.main(["scan", "--base", str(b), "--from", "1", "--to", "3000"]) == 0
            assert got.getvalue() == _scan_csv(b, 3000), b


class TestNaiveFallback:
    def test_agrees_with_fast_path(self):
        for n in range(2, 200):
            if math.gcd(10, n) == 1:
                assert order_mod_naive(10, n) == order_mod(10, n)


class TestOneFactorization:
    """Readers of a modulus's order data factor that modulus at most once."""

    @pytest.fixture
    def factored(self, monkeypatch):
        seen = []
        real = arith.factor

        def counting(n):
            seen.append(n)
            return real(n)

        monkeypatch.setattr(arith, "factor", counting)
        return seen

    def test_prime_power_structure(self, factored):
        prime_power_structure(10, 21, 3, 1)
        assert factored.count(21) == 1

    def test_ppl3(self, factored):
        midy_check_ppl3(10, 21, 6)
        assert factored.count(21) == 1

    def test_guel_triple_reads_the_primes_of_d_off_the_order(self, factored):
        guel_triple(10, 49, 3)
        assert factored.count(49) == 1
        assert 3 not in factored

    def test_progression_never_factors_a_candidate(self, factored, monkeypatch):
        # nor takes an order mod one: one modular power decides each
        asked = []
        real = order._order_mod_prime

        def recording(*args):
            asked.append(args)
            return real(*args)

        monkeypatch.setattr(order, "_order_mod_prime", recording)
        trace = prime_progression(10, 3, 1, 5)
        candidates = {
            j * m + 1 for m, p in trace.steps for j in range(1, (p - 1) // m + 1)
        }
        assert trace.primes == (7, 19, 109, 487, 2917)
        assert not candidates & set(factored)
        assert not asked

    def test_scan_factors_only_p_minus_one(self, factored, monkeypatch):
        # The chunk sieve factors each row's n, and L's factorization is
        # read off the profile: factor only sees p - 1, once per prime, as
        # the scan keeps each order until no later row reads it, and
        # nothing tests a prime again.
        tested = []
        real = arith.is_prime

        def counting(n):
            tested.append(n)
            return real(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["scan", "--base", "10", "--from", "2", "--to", "20000"]) == 0
        monkeypatch.undo()
        primes = [p for p in range(3, 20001) if p != 5 and real(p)]
        assert len(primes) == 2260
        assert sorted(factored) == [p - 1 for p in primes]
        assert tested == []
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "4cf9c15d680c80e09d91a0de82333c54e158bfd5a798ad1aa0b066d9912b2733"
        )

    def test_jenkins_gcd_route_reads_the_instance(self, factored):
        inst = jenkins_instance(10, 3, [(7, 2), (13, 1)])
        jenkins_check_gcd(inst)
        assert inst.modulus not in factored


class TestOneProfile:
    """The product criterion and the prime-power test derive no order data
    that they already hold."""

    @pytest.fixture
    def work(self, monkeypatch):
        # The arguments of every profile built and every primality test,
        # under each name a midylab module binds to those functions.
        calls = {"modulus_profile": [], "is_prime": []}
        reals = {"modulus_profile": order.modulus_profile, "is_prime": arith.is_prime}
        for module in [m for name, m in sys.modules.items() if name.startswith("midylab")]:
            for attr, value in list(vars(module).items()):
                for key, real in reals.items():
                    if value is real:

                        def counting(*args, _real=real, _seen=calls[key], **kwargs):
                            _seen.append(args)
                            return _real(*args, **kwargs)

                        monkeypatch.setattr(module, attr, counting)
        return calls

    def test_jenkins_gcd_route_builds_no_profile(self, work):
        inst = jenkins_instance(10, 3, [(7, 2), (13, 1)])
        del work["modulus_profile"][:], work["is_prime"][:]
        assert jenkins_check_gcd(inst) is True
        assert work == {"modulus_profile": [], "is_prime": []}

    def test_prime_power_test_builds_one_profile(self, work):
        assert prime_power_midy_structure(10, 27, 3, 1) is False
        assert work["modulus_profile"] == [(10, 27)]
        assert work["is_prime"].count((3,)) == 1

    def test_prime_power_structure_tests_q_once(self, work):
        # The lift at q starts from the profile's order mod q.
        s = prime_power_structure(10, 111, 3, 1)
        assert (s.q_exponent, s.m) == (1, 2)
        assert work["is_prime"].count((3,)) == 1


def divisors_above_one(n: int) -> list[int]:
    """The divisors d > 1 of n, ascending, expanded from arith.factor(n)."""
    divs = [1]
    for p, e in arith.factor(n):
        divs = [d * p**j for j in range(e + 1) for d in divs]
    return sorted(divs)[1:]


class TestOrderFactorization:
    """The order's divisors are read off the orders mod p."""

    def test_matches_factoring_the_order(self):
        for b in range(2, 63):
            for n in range(1, 2000):
                if math.gcd(b, n) == 1:
                    prof = modulus_profile(b, n)
                    want = divisors_above_one(prof.order)
                    assert _order_divisors(prof) == want, (b, n)
                    exponents = _order_exponents(prof)
                    assert math.prod(q**e for q, e in exponents.items()) == prof.order
                    assert sorted(exponents) == list(arith.factor(prof.order).primes())

    def test_matches_trial_division(self):
        # Independent of arith.factor: every d in 2..L that divides L.
        for b in range(2, 63):
            for n in range(1, 400):
                if math.gcd(b, n) == 1:
                    L = order_mod(b, n)
                    want = [d for d in range(2, L + 1) if L % d == 0]
                    assert _order_divisors(modulus_profile(b, n)) == want, (b, n)

    def test_semiprimes_near_1e18(self):
        # Two primes near 10**9 each; 1000000006 = 2 * 500000003 leaves a
        # cofactor of p - 1 past the small-prime table.
        for p, q in [(999999937, 1000000007), (1000000009, 1000000021)]:
            for b in (2, 3, 10, 61):
                prof = modulus_profile(b, p * q)
                L = prof.order
                divisors = _order_divisors(prof)
                assert divisors == divisors_above_one(L)
                exponents = _order_exponents(prof)
                assert math.prod(r**e for r, e in exponents.items()) == L
                assert sorted(exponents) == list(arith.factor(L).primes())
                # L is the order: b**L is 1 and no L / r is, r a prime of L.
                assert pow(b, L, p * q) == 1
                assert all(pow(b, L // r, p * q) != 1 for r in exponents)

    def test_divisor_count_past_the_limit(self, monkeypatch):
        # 10 has order 21 = 3 * 7 mod 43 and 6 = 2 * 3 mod 7 (4 divisors
        # each), 42 = 2 * 3 * 7 mod 49 (8) and 294 = 2 * 3 * 7**2 mod 343 (12).
        monkeypatch.setattr(order, "DIVISOR_COUNT_LIMIT", 4)
        assert _order_divisors(modulus_profile(10, 43)) == [3, 7, 21]
        assert _order_divisors(modulus_profile(10, 7)) == [2, 3, 6]
        for n in (49, 343):
            with pytest.raises(BoundedSearchError) as info:
                _order_divisors(modulus_profile(10, n))
            assert info.value.bound == 4

    # Factorizations a caller may supply for N, each with one defect, and
    # the entries that take one.  Building a Factorization checks nothing,
    # so every entry must refuse each of them where it enters: a composite
    # must not be lifted by, nor a misshapen one read as N's primes.
    SUPPLIED = {
        "unsorted": (15, lambda: ((5, 1), (3, 1))),
        "zero-exponent": (1, lambda: ((3, 0),)),
        "repeated-prime": (9, lambda: ((3, 1), (3, 1))),
        "composite": (21, lambda: ((21, 1),)),
        "wrong-product": (21, lambda: arith.factor(7)),
        "unsorted-iterator": (14, lambda: iter([(7, 1), (2, 1)])),
    }
    ENTRIES = {
        "order_mod": lambda b, n, f: order_mod(b, n, n_factors=f),
        "modulus_profile": lambda b, n, f: modulus_profile(b, n, n_factors=f),
        "midy_check_ppl2": lambda b, n, f: midy_check_ppl2(b, n, 2, n_factors=f),
        "midy_check_ppl3": lambda b, n, f: midy_check_ppl3(b, n, 2, n_factors=f),
        "midy_set": lambda b, n, f: midy_set(b, n, n_factors=f),
    }

    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
    @pytest.mark.parametrize("supplied", SUPPLIED.values(), ids=SUPPLIED.keys())
    def test_supplied_composite_never_trusted(self, supplied, entry):
        n, pairs = supplied
        with pytest.raises(DomainError):
            entry(11, n, arith.Factorization(pairs()))
