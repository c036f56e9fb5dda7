"""Output checks that do not take the route under test.

Scans are decided with ppl2.  Every row's order is checked by b**L == 1
and b**(L/q) != 1 for each prime q of L, and its members for closure
under multiples; a sample of rows is re-decided with the naive order
scan, ppl3, and for small n the digit-level oracle.  Requests are checked against facts the generator knew
when it built them (the factorization of N and the order).  Each check
returns a list of (item, problem) pairs; an empty list means correct.
"""

from __future__ import annotations

import json
import math
import random

import numtheory as nt

NAIVE_MAX = 10**5  # orders of n up to this are checked by the naive scan
DIRECT_MAX = 2000  # members of n up to this are also checked by the oracle
MIDY_SET_SAMPLE = 25  # midy_set answers a pass re-decides with ppl3; the rest
                      # get the order and closure checks only


def expected_rows(params: dict) -> list[int]:
    b = params["base"]
    return [n for n in range(params["lo"], params["hi"] + 1) if math.gcd(n, b) == 1]


def parse_scan(params: dict, text: str):
    """[(n, base, L, members, excluded or None)] and a list of format problems."""
    lines = text.splitlines()
    rows, problems = [], []
    if params["format"] == "csv":
        if not lines or lines[0] != "n,base,order,midy_set":
            return rows, [("header", f"bad header {lines[:1]!r}")]
        for line in lines[1:]:
            try:
                n, b, L, members = line.split(",")
                rows.append((int(n), int(b), int(L),
                             [int(d) for d in members.split(";") if d], None))
            except ValueError:
                problems.append(("row", f"unparsable {line[:80]!r}"))
    else:
        for line in lines:
            try:
                r = json.loads(line)
                rows.append((r["n"], r["base"], r["order"], r["midy_set"], r["excluded"]))
            except (ValueError, KeyError):
                problems.append(("row", f"unparsable {line[:80]!r}"))
    return rows, problems


def row_problems(b: int, n: int, L: int, members, excluded) -> list[str]:
    """Checks cheap enough for every row: the order, the shape of the member
    set, and the exclusion list with its certificates."""
    if not nt.is_order(b, n, L):
        return [f"{L} is not the order of {b} mod {n}"]
    lf = nt.factor(L)
    problems = []
    bad = _closure_problem(members, lf)
    if bad:
        problems.append(bad)
    if excluded is not None:
        divs = set(nt.divisors(lf)[1:])
        if sorted(e["d"] for e in excluded) != sorted(divs - set(members)):
            problems.append("excluded block counts are not the complement of the members")
        problems += filter(None, (check_certificate(b, n, L, e) for e in excluded))
    return problems


def deep_row_problems(ml, b: int, n: int, L: int, members) -> list[str]:
    """Re-decide one row by other routes: the naive order scan, ppl3, and for
    small n the digit-level oracle."""
    if n <= NAIVE_MAX and L != ml.order_mod_naive(b, n):
        return [f"order {L} differs from the naive scan"]
    fac = ml.Factorization(tuple(nt.factor(n).items()))
    divs = nt.divisors(nt.factor(L))[1:]
    want = [d for d in divs if ml.midy_check_ppl3(b, n, d, n_factors=fac).holds]
    problems = []
    if list(members) != want:
        problems.append(f"members {list(members)} but ppl3 gives {want}")
    if n <= DIRECT_MAX:
        oracle = [d for d in divs if ml.midy_check_direct(b, n, d).holds]
        if oracle != want:
            problems.append(f"ppl3 members {want} but the oracle gives {oracle}")
    return problems


def check_certificate(b: int, n: int, L: int, entry) -> str | None:
    """A PrimeCertificate must name p dividing n exactly nu_n times with b**k == 1 mod p."""
    d, cert = entry["d"], entry["certificate"]
    try:
        p, nu = cert["p"], cert["nu_n"]
    except (TypeError, KeyError):
        return f"d={d}: no prime certificate"
    if L % d or not nt.is_prime(p) or n % p**nu or n % p ** (nu + 1) == 0:
        return f"d={d}: {p}^{nu} is not the exact power of a prime of {n}"
    if pow(b, L // d, p) != 1:
        return f"d={d}: {b}^{L // d} is not 1 mod {p}"
    return None


def check_scan(ml, params: dict, text: str, seed: int, sample: int) -> list[tuple]:
    """Every row gets row_problems; a seeded sample, weighted to small n so
    that the oracle runs too, gets deep_row_problems."""
    b = params["base"]
    rows, problems = parse_scan(params, text)
    got = [r[0] for r in rows]
    want = expected_rows(params)
    if got != want:
        missing = sorted(set(want) - set(got))[:5]
        extra = sorted(set(got) - set(want))[:5]
        problems.append(("rows", f"{len(got)} rows, want {len(want)}; missing {missing}, "
                                 f"unexpected {extra}, or out of order"))
    for n, base, L, members, excluded in rows:
        if base != b:
            problems.append((n, f"base {base}"))
        problems += [(n, p) for p in row_problems(b, n, L, members, excluded)]
    rng = random.Random(f"check/{seed}")
    small = [r for r in rows if r[0] <= DIRECT_MAX]
    picked = rng.sample(rows, min(sample, len(rows)))
    picked += rng.sample(small, min(sample // 4, len(small)))
    for n, _, L, members, _ in picked:
        problems += [(n, p) for p in deep_row_problems(ml, b, n, L, members)]
    return problems


def _period_problem(req, out) -> str | None:
    b, N, x, d = req["b"], req["N"], req["x"], req["d"]
    digits, blocks, total = out
    L = req["expect"]["order"]
    if len(digits) != L or any(not 0 <= g < b for g in digits):
        return f"period has {len(digits)} digits, want {L}"
    value = 0
    for g in digits:
        value = value * b + g
    if value * N != x * (b**L - 1):
        return "digits are not the period of x/N"
    k = L // d
    want = [sum(g * b ** (k - 1 - i) for i, g in enumerate(digits[j * k:(j + 1) * k]))
            for j in range(d)]
    if blocks != want or total != sum(want):
        return "blocks or block sum do not match the digits"
    return None


def _progression_problem(req, steps) -> str | None:
    b, q, v = req["b"], req["q"], req["v"]
    step = q**v
    if len(steps) != req["count"]:
        return f"{len(steps)} steps, want {req['count']}"
    prev = 0
    for i, (modulus, prime) in enumerate(steps):
        if not nt.is_prime(prime):
            return f"step {i}: {prime} is not prime"
        if modulus % step or prime % modulus != 1:
            return f"step {i}: {prime} is not 1 mod {modulus}, or {step} does not divide it"
        if prime <= prev or (i and modulus <= prev):
            return f"step {i}: {prime} (mod {modulus}) does not exceed the previous prime {prev}"
        if math.gcd(prime, b) != 1:
            return f"step {i}: {prime} shares a factor with base {b}"
        prev = prime
    return None


def _closure_problem(out, order_factors) -> str | None:
    """Members must be divisors > 1 of the order, closed under taking multiples."""
    divs = set(nt.divisors(order_factors)[1:])
    members = set(out)
    if list(out) != sorted(members) or not members <= divs:
        return f"members {out} are not ascending divisors > 1 of the order"
    L = max(divs, default=1)
    for d in members:
        for q in order_factors:
            if L % (d * q) == 0 and d * q not in members:
                return f"members {out} hold {d} but not its multiple {d * q}"
    return None


def check_request(ml, req, out, full: bool = True) -> str | None:
    """Problem with one answered request, or None.  With full=False a
    midy_set answer gets the structural checks only."""
    op, b = req["op"], req["b"]
    if op == "progression":
        return _progression_problem(req, out)
    expect = req["expect"]
    if op == "jenkins":
        return None if out[0] == out[1] else f"formula route {out[0]}, gcd route {out[1]}"
    if op == "cross":
        return None if out[0] == out[1] == out[2] else f"ppl2/ppl3/direct disagree: {out}"
    if op == "period":
        return _period_problem(req, out)
    N, L = req["N"], expect["order"]
    fac = ml.Factorization(tuple(expect["factors"].items()))
    if op == "order_mod":
        return None if out == L else f"order {out}, want {L}"
    if op == "ppl2":
        ppl3 = ml.midy_check_ppl3(b, N, req["d"], n_factors=fac).holds
        return None if out == ppl3 else f"ppl2 says {out}, ppl3 says {ppl3}"
    if op == "midy_set":
        if out[0] != L:
            return f"order {out[0]}, want {L}"
        bad = _closure_problem(out[1], expect["order_factors"])
        if bad or not full:
            return bad
        divs = nt.divisors(expect["order_factors"])[1:]
        want = [d for d in divs if ml.midy_check_ppl3(b, N, d, n_factors=fac).holds]
        return None if out[1] == want else f"members {out[1]}, ppl3 gives {want}"
    return f"unknown op {op}"


def check_requests(ml, requests, outputs, seed: int) -> list[tuple]:
    sets = [i for i, r in enumerate(requests) if r["op"] == "midy_set"]
    full = set(random.Random(f"check/{seed}").sample(sets, min(MIDY_SET_SAMPLE, len(sets))))
    problems = []
    for i, (req, out) in enumerate(zip(requests, outputs)):
        if out is not None:
            bad = check_request(ml, req, out, full=req["op"] != "midy_set" or i in full)
            if bad:
                problems.append((i, bad))
    return problems
