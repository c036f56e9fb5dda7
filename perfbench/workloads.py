"""The four workloads: why each exists, and their seeded inputs.

Inputs come only from the seed and from numtheory, never from midylab,
so every version of the program gets the same inputs and the timed
process gets nothing but them.  Each request carries the facts the
checker needs (`expect`), which the runner never sees.
"""

from __future__ import annotations

import math
import random

import numtheory as nt

WHY = {
    "scan-dense": "many cheap rows (base 10, n<=50000, jobs 1, CSV): hot order caches, "
                  "deciding layer recomputes order_mod per divisor; single-process baseline",
    "scan-wide": "few costly rows near 10**12 (base 7, jobs 2, JSON): cold order caches, "
                 "Miller-Rabin re-checks, certificates and the worker pool",
    "queries": "seeded mix of single library questions over bases 2..62, closed loop, "
               "one client: rho factoring of semiprimes, ppl3, the direct oracle, jenkins",
    "progression": "prime_progression over a (b, q, v) grid in seeded order, closed loop, "
                   "one client: the linear witness scan and primes past the proof bound",
}

# Which end-to-end metric each layer metric should move, and where.
LAYER_MAP = {
    "arith.factor": {"moves": ["req_p99_ms", "wall_s"], "on": ["queries", "progression"],
                     "flat_on": ["scan-dense"]},
    "arith.is_prime": {"moves": ["rows_per_s"], "on": ["scan-wide", "scan-dense"]},
    "order.order_mod": {"moves": ["rows_per_s", "wall_s"],
                        "on": ["scan-dense", "scan-wide", "progression"]},
    "order.*_cache": {"moves": ["rows_per_s"], "on": ["scan-dense", "scan-wide"],
                      "note": "hit_ratio is dominated by repeats inside a row; "
                              "cross_item_hit_ratio is hot on scan-dense, cold on scan-wide"},
    "midy.ppl2/midy_set": {"moves": ["rows_per_s"], "on": ["scan-dense", "scan-wide"],
                           "small_on": ["queries"]},
    "midy.ppl3": {"moves": ["req_p50_ms"], "on": ["queries"]},
    "expansion": {"moves": ["req_p50_ms"], "on": ["queries"]},
    "jenkins": {"moves": ["req_p50_ms"], "on": ["queries"]},
    "progression": {"moves": ["wall_s", "the tail req_pNN_ms"], "on": ["progression"]},
    "cli": {"moves": ["rows_per_s"], "on": ["scan-wide", "scan-dense"]},
    "cli.pool": {"moves": ["wall_s", "peak_rss_mb"], "on": ["scan-wide"]},
    "tracing_overhead": {"moves": [], "on": ["scan-dense", "scan-wide", "queries",
                                             "progression"]},
}

SCANS = {
    "scan-dense": {"base": 10, "lo": 2, "hi": 50000, "jobs": 1, "format": "csv"},
    # 1000 rows keep a pass near 3 s, so that a run's median has several passes:
    # the pool's pass times scatter more than one process's.
    "scan-wide": {"base": 7, "lo": 10**12 + 1, "hi": 10**12 + 1000, "jobs": 2,
                  "format": "json"},
}

# Requests per kind in one queries pass; fixed so that seeds differ in the
# numbers drawn, not in the mix.
QUERY_MIX = {
    "order_mod": 380,
    "order_mod_semiprime": 20,
    "midy_set_semiprime": 20,
    "ppl2": 300,
    "cross": 100,
    "period": 250,
    "jenkins": 150,
}
# midy_set on N up to 10**18 decides every divisor of the order, and the
# number of divisors ranges from 1 to thousands.  A pass draws midy_set
# requests until their orders have this many divisors > 1 in total (about
# 280 requests), so that seeds differ in the numbers, not in the work.
MIDY_SET_DIVISORS = 28000
SEMIPRIME_BITS = 28
Q_CHOICES = (2, 3, 5, 7, 11, 13)
QV_MAX = 3000
PROGRESSION_BASES = (3, 10, 31, 45, 60)
PROGRESSION_COUNT = 12  # enough for late primes to pass the Miller-Rabin proof bound


def scan_argv(params: dict) -> list[str]:
    return ["scan", "--base", str(params["base"]), "--from", str(params["lo"]),
            "--to", str(params["hi"]), "--jobs", str(params["jobs"]),
            "--format", params["format"]]


def _base(rng) -> int:
    return rng.randrange(2, 63)


def _modulus(rng, b: int, limit: int) -> dict[int, int]:
    """Known factorization of a random N in [2, limit] coprime to b, log-uniform size."""
    while True:
        target = math.exp(rng.uniform(math.log(2), math.log(limit)))
        factors: dict[int, int] = {}
        n = 1
        for _ in range(64):
            room = target / n
            if room < 2:
                break
            p = nt.random_prime(rng, 2, int(math.exp(rng.uniform(math.log(2), math.log(room)))) + 2)
            if b % p and n * p <= limit:
                factors[p] = factors.get(p, 0) + 1
                n *= p
        if n > 1:
            return dict(sorted(factors.items()))


def _semiprime(rng) -> dict[int, int]:
    lo, hi = 1 << (SEMIPRIME_BITS - 1), 1 << SEMIPRIME_BITS
    p = nt.random_prime(rng, lo, hi)
    q = nt.random_prime(rng, lo, hi)
    while q == p:
        q = nt.random_prime(rng, lo, hi)
    return dict(sorted({p: 1, q: 1}.items()))


def _expect(b: int, f: dict[int, int]) -> dict:
    """What the checker needs to know about N: its factors and its order's."""
    lf = nt.order_factors(b, f)
    return {"factors": f, "order": math.prod(q**e for q, e in lf.items()),
            "order_factors": lf}


def _with_divisor(rng, limit: int):
    """(b, N factors, expect, d) with d > 1 a random divisor of the order."""
    while True:
        b = _base(rng)
        f = _modulus(rng, b, limit)
        expect = _expect(b, f)
        divs = nt.divisors(expect["order_factors"])[1:]
        if divs:
            return b, f, expect, rng.choice(divs)


def _value(f: dict[int, int]) -> int:
    return math.prod(p**e for p, e in f.items())


def _query(rng, kind: str) -> dict:
    if kind in ("order_mod", "order_mod_semiprime", "midy_set", "midy_set_semiprime"):
        b = _base(rng)
        f = _semiprime(rng) if kind.endswith("semiprime") else _modulus(rng, b, 10**18)
        op = kind.split("_semi")[0]
        return {"op": op, "b": b, "N": _value(f), "expect": _expect(b, f)}
    if kind in ("ppl2", "cross"):
        b, f, expect, d = _with_divisor(rng, 10**12 if kind == "ppl2" else 2 * 10**4)
        return {"op": kind, "b": b, "N": _value(f), "d": d, "expect": expect}
    if kind == "period":
        b, f, expect, d = _with_divisor(rng, 2 * 10**4)
        N = _value(f)
        x = rng.randrange(1, N)
        while math.gcd(x, N) != 1:
            x = rng.randrange(1, N)
        return {"op": "period", "b": b, "N": N, "x": x, "d": d, "expect": expect}
    if kind == "jenkins":
        return _jenkins(rng)
    raise ValueError(kind)


def _jenkins(rng) -> dict:
    """Product instance whose primes each have the property for d."""
    while True:
        b = _base(rng)
        d = rng.randrange(2, 7)
        pp = {}
        for _ in range(rng.randrange(1, 4)):
            for _ in range(200):
                p = nt.random_prime(rng, 3, 10**5)
                if b % p and p not in pp and nt.order(b, {p: 1}) % d == 0:
                    pp[p] = rng.randrange(1, 4)
                    break
        if pp:
            f = dict(sorted(pp.items()))
            return {"op": "jenkins", "b": b, "d": d, "pp": [[p, h] for p, h in f.items()],
                    "expect": _expect(b, f)}


def queries(seed: int) -> list[dict]:
    rng = random.Random(f"queries/{seed}")
    reqs = [_query(rng, kind) for kind, n in QUERY_MIX.items() for _ in range(n)]
    decided = 0
    while decided < MIDY_SET_DIVISORS:
        reqs.append(_query(rng, "midy_set"))
        decided += len(nt.divisors(reqs[-1]["expect"]["order_factors"])) - 1
    rng.shuffle(reqs)
    return reqs


def progression(seed: int) -> list[dict]:
    """The fixed (b, q, v) grid in a seeded order.

    One input can cost a hundred times another (perfect-power bases with
    q = 2 scan far for each prime), so a random draw that fits in one run
    spreads by 10-25% between seeds; the grid keeps the work fixed.  Its
    odd bases 3 and 31 with q = 2, v = 1 hit the known even-prime witness
    defect: those requests fail, and are counted, not skipped."""
    grid = [{"op": "progression", "b": b, "q": q, "v": v, "count": PROGRESSION_COUNT}
            for q in Q_CHOICES for v in _progression_exponents(q)
            for b in PROGRESSION_BASES]
    random.Random(f"progression/{seed}").shuffle(grid)
    return grid


def _progression_exponents(q: int) -> list[int]:
    """v = 1, the largest v with q**v <= QV_MAX, and one halfway between."""
    top = max(v for v in range(1, 20) if q**v <= QV_MAX)
    return sorted({1, (top + 1) // 2, top})


def inputs(workload: str, seed: int) -> dict:
    """Everything a run of the workload needs, derived from the seed alone."""
    if workload in SCANS:
        params = dict(SCANS[workload])
        return {"mode": "scan", "params": params, "argv": scan_argv(params)}
    gen = {"queries": queries, "progression": progression}[workload]
    return {"mode": "requests", "requests": gen(seed)}
