"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they complete.  The sweeps here are the authoritative
cross-validation gates: structural deciders against the digit-level
oracle, the lifting rule against vectorized naive order scans, and the
product/structure criteria against the production decider.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations, product

import numpy as np
import pytest

from midylab import arith
from midylab.arith import Factorization
from midylab.expansion import blocks_and_sum, period_digits, smallest_failing_x
from midylab.jenkins import JenkinsInstance, jenkins_check, jenkins_check_gcd
from midylab.midy import (
    midy_check_direct,
    midy_check_ppl2,
    midy_check_ppl3,
    midy_set,
)
from midylab.order import lift_valuation, modulus_profile, order_mod
from midylab.progression import (
    midy_prime_v1_check,
    prime_power_midy_structure,
    prime_progression,
    smallest_midy_witness,
)

SWEEP_BASES = (2, 3, 8, 10, 16)
SWEEP_LIMIT = 2000
ALL_BASES = range(2, 63)  # every base the CLI accepts
ALL_BASES_LIMIT = 400


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {label}", flush=True)
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS {label} ({elapsed:.1f}s)", flush=True)


def divisors_above_one(n: int) -> list[int]:
    divs = [1]
    for p, e in arith.factor(n):
        divs = [d * p**j for j in range(e + 1) for d in divs]
    return sorted(divs)[1:]


def test_criterion_1_worked_example_base_10():
    with criterion(1, "base 10, N = 13 worked example"):
        started = time.perf_counter()
        assert order_mod(10, 13) == 6
        e = period_digits(1, 13, 10)
        assert e.digits == (0, 7, 6, 9, 2, 3)
        s = blocks_and_sum(e, 3)
        assert s.blocks == (7, 69, 23)
        assert s.block_sum == 99
        assert midy_set(10, 13).members == (2, 3, 6)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_worked_example_base_8():
    with criterion(2, "base 8, N = 75 worked example"):
        started = time.perf_counter()
        assert order_mod(8, 75) == 20
        e = period_digits(1, 75, 8)
        assert "".join(str(d) for d in e.digits) == "00664720155164033235"
        s = blocks_and_sum(e, 4)
        assert s.block_sum == 65534 == 2 * (8**5 - 1)
        assert smallest_failing_x(8, 75, 5) is not None
        assert midy_set(8, 75).members == (4, 20)
        assert time.perf_counter() - started < 1.0


@pytest.fixture(scope="module")
def decider_sweep():
    """All (base, N, d) verdicts over the sweep corpus, plus disagreements."""
    verdicts = {}
    disagreements = []
    for b in SWEEP_BASES:
        for n in range(2, SWEEP_LIMIT + 1):
            if math.gcd(b, n) != 1:
                continue
            L = order_mod(b, n)
            per_d = {}
            for d in divisors_above_one(L):
                p2 = midy_check_ppl2(b, n, d).holds
                p3 = midy_check_ppl3(b, n, d).holds
                direct = smallest_failing_x(b, n, d) is None
                per_d[d] = direct
                if not (p2 == p3 == direct):
                    disagreements.append((b, n, d, p2, p3, direct))
            verdicts[(b, n)] = (L, per_d)
    return verdicts, disagreements


def test_criterion_3_oracle_equivalence_sweep(decider_sweep):
    with criterion(3, f"decider equivalence, N <= {SWEEP_LIMIT}, bases {SWEEP_BASES}"):
        _, disagreements = decider_sweep
        assert disagreements == [], disagreements[:10]


def test_criterion_4_upward_closure(decider_sweep):
    with criterion(4, "upward closure of the property sets on the sweep"):
        verdicts, _ = decider_sweep
        violations = []
        for (b, n), (L, per_d) in verdicts.items():
            for d1, held in per_d.items():
                if not held:
                    continue
                for d2 in range(2 * d1, L + 1, d1):
                    if L % d2 == 0 and not per_d[d2]:
                        violations.append((b, n, d1, d2))
        assert violations == [], violations[:10]


def test_criterion_5_order_lifting_vs_naive_scan():
    with criterion(5, "order lifting vs naive scan, odd p <= 200, p**t <= 10**6"):
        started = time.perf_counter()
        lanes = []
        for p in range(3, 201, 2):
            if not arith.is_prime(p):
                continue
            modulus, t = p, 1
            while modulus <= 10**6:
                for b in range(2, 51):
                    if b % p:
                        lanes.append((b, p, t, modulus))
                modulus, t = modulus * p, t + 1

        # naive side: successive powers of b until 1, all lanes batched
        bv = np.array([b for b, _, _, _ in lanes], dtype=np.int64)
        mv = np.array([m for _, _, _, m in lanes], dtype=np.int64)
        idx = np.arange(len(lanes))
        naive = np.zeros(len(lanes), dtype=np.int64)
        r = bv % mv
        step = 1
        while idx.size:
            done = r == 1
            if done.any():
                naive[idx[done]] = step
                keep = ~done
                bv, mv, idx, r = bv[keep], mv[keep], idx[keep], r[keep]
                if not idx.size:
                    break
            r = r * bv % mv
            step += 1

        mismatches = []
        for (b, p, t, modulus), expected in zip(lanes, naive.tolist()):
            if modulus_profile(b, modulus).per_prime[0][2] != expected:
                mismatches.append((b, p, t, expected))
        assert mismatches == [], mismatches[:10]
        # spot-check the batched scan against plain loops
        for b, p, t, modulus in lanes[:: max(1, len(lanes) // 50)]:
            r1, o = b % modulus, 1
            while r1 != 1:
                r1, o = r1 * b % modulus, o + 1
            assert o == naive[lanes.index((b, p, t, modulus))]
        assert time.perf_counter() - started < 60.0


def test_criterion_6_jenkins_equivalence():
    with criterion(6, "product criterion: formula = gcd = decider, h-independent"):
        checked = 0
        for b in (2, 10):
            for d in range(2, 31):
                eligible = []
                for p in range(3, 201):
                    if not arith.is_prime(p) or b % p == 0:
                        continue
                    op = order_mod(b, p)
                    if op % d == 0:
                        eligible.append((p, op, op // d, lift_valuation(b, p)))
                for t in (1, 2, 3):
                    for chosen in combinations(eligible, t):
                        verdicts = set()
                        for hs in product((1, 2, 3), repeat=t):
                            pairs = tuple(
                                (p, h) for (p, _, _, _), h in zip(chosen, hs)
                            )
                            inst = JenkinsInstance(
                                base=b,
                                d=d,
                                prime_powers=pairs,
                                orders=tuple(op for _, op, _, _ in chosen),
                                block_lengths=tuple(k for _, _, k, _ in chosen),
                                lift_valuations=tuple(m for _, _, _, m in chosen),
                            )
                            formula = jenkins_check(inst)
                            assert formula == jenkins_check_gcd(inst), (b, d, pairs)
                            nf = Factorization(pairs)
                            assert (
                                formula
                                == midy_check_ppl2(b, nf.value, d, n_factors=nf).holds
                            ), (b, d, pairs)
                            verdicts.add(formula)
                            checked += 1
                        assert len(verdicts) == 1, (b, d, chosen)
        assert checked > 100000


def test_criterion_7_prime_power_structure_equivalence():
    with criterion(7, "prime-power structure checks vs the decider, N <= 2000"):
        for b in (2, 10):
            for n in range(2, SWEEP_LIMIT + 1):
                if math.gcd(b, n) != 1:
                    continue
                L = order_mod(b, n)
                for q in (2, 3, 5):
                    if L % q != 0:
                        continue
                    assert (
                        midy_prime_v1_check(b, n, q)
                        == midy_check_ppl2(b, n, q).holds
                    ), (b, n, q)
                    for v in (1, 2):
                        if L % q**v != 0:
                            continue
                        assert (
                            prime_power_midy_structure(b, n, q, v)
                            == midy_check_ppl2(b, n, q**v).holds
                        ), (b, n, q, v)


def test_criterion_8_prime_progression_construction():
    with criterion(8, "witnesses and progressions over {2,10} x {2,3,5,7} x {1,2}"):
        for b in (2, 10):
            for q in (2, 3, 5, 7):
                for v in (1, 2):
                    started = time.perf_counter()
                    w = smallest_midy_witness(b, q, v)
                    assert arith.is_prime(w), (b, q, v, w)
                    assert w % q**v == 1, (b, q, v, w)
                    trace = prime_progression(b, q, v, 5)
                    primes = trace.primes
                    assert len(primes) == 5
                    assert primes[0] == w
                    assert all(x < y for x, y in zip(primes, primes[1:]))
                    assert all(arith.is_prime(p) for p in primes)
                    assert all(p % q**v == 1 for p in primes)
                    assert time.perf_counter() - started < 60.0, (b, q, v)
        example = prime_progression(10, 3, 1, 2).primes
        assert example == (7, 19)


def test_criterion_9_cli_scan_determinism():
    with criterion(9, "scan CSV byte-identical for --jobs 1 and --jobs 8"):
        base_cmd = [
            sys.executable,
            "-m",
            "midylab.cli",
            "scan",
            "--base",
            "10",
            "--from",
            "2",
            "--to",
            "500",
        ]
        one = subprocess.run(
            base_cmd + ["--jobs", "1"], capture_output=True, check=True
        )
        eight = subprocess.run(
            base_cmd + ["--jobs", "8"], capture_output=True, check=True
        )
        assert one.stdout == eight.stdout
        assert one.stdout.startswith(b"n,base,order,midy_set\n")


def test_criterion_10_all_bases_decider_equivalence():
    with criterion(
        10, f"midy_set = ppl2 = ppl3 = direct, bases 2..62, N < {ALL_BASES_LIMIT}"
    ):
        checked = 0
        disagreements = []
        for b in ALL_BASES:
            for n in range(2, ALL_BASES_LIMIT):
                if math.gcd(b, n) != 1:
                    continue
                result = midy_set(b, n)
                assert result.order == order_mod(b, n), (b, n)
                members = set(result.members)
                for d in divisors_above_one(result.order):
                    in_set = d in members
                    p2 = midy_check_ppl2(b, n, d).holds
                    p3 = midy_check_ppl3(b, n, d).holds
                    direct = midy_check_direct(b, n, d).holds
                    if not (in_set == p2 == p3 == direct):
                        disagreements.append((b, n, d, in_set, p2, p3, direct))
                    checked += 1
        assert disagreements == [], disagreements[:10]
        assert checked == 67841
