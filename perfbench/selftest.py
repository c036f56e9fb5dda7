"""Checker self-test: the checks must pass good outputs and flag bad ones.

    python3 perfbench/selftest.py      (from the root of a checkout)

run.py calls run() before every benchmark run, so a checker that has
stopped catching errors cannot pass a benchmark silently.  Good outputs
come from midylab on tiny inputs; each bad one changes a single fact.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import check
import numtheory as nt


class SelfTestError(Exception):
    pass


def _cli(ml, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ml.cli.main(argv)
    if code != 0:
        raise SelfTestError(f"midylab {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _scan(ml, params) -> str:
    return _cli(ml, ["scan", "--base", str(params["base"]), "--from", str(params["lo"]),
                     "--to", str(params["hi"]), "--format", params["format"]])


def _edit_csv(text: str, n: int, edit) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"{n},"):
            lines[i] = edit(line.split(","))
    return "\n".join(line for line in lines if line is not None) + "\n"


def _edit_json(text: str, n: int, edit) -> str:
    rows = [json.loads(line) for line in text.splitlines()]
    for row in rows:
        if row["n"] == n:
            edit(row)
    return "".join(json.dumps(row) + "\n" for row in rows)


def _bad_exponent(row):
    row["excluded"][0]["certificate"]["nu_n"] += 1


def _wrong_prime(js_rows):
    """(n, edit) naming, for some excluded d, another prime of n, at its exact
    exponent, that does not divide b**k - 1."""
    for n, b, L, _, excluded in js_rows:
        for i, entry in enumerate(excluded):
            k = L // entry["d"]
            for p, e in nt.factor(n).items():
                if pow(b, k, p) != 1:
                    def edit(row, i=i, p=p, e=e):
                        row["excluded"][i]["certificate"].update(p=p, nu_n=e)
                    return n, edit
    raise SelfTestError("no row to plant a wrong certificate prime in")


def run(ml) -> None:
    csv = {"base": 10, "lo": 2, "hi": 80, "jobs": 1, "format": "csv"}
    js = {"base": 7, "lo": 2, "hi": 80, "jobs": 1, "format": "json"}
    good_csv, good_json = _scan(ml, csv), _scan(ml, js)
    for params, text in ((csv, good_csv), (js, good_json)):
        problems = check.check_scan(ml, params, text, seed=0, sample=100)
        if problems:
            raise SelfTestError(f"midylab's own {params['format']} scan fails the check: "
                                f"{problems[:3]}")
    rows, _ = check.parse_scan(csv, good_csv)
    js_rows, _ = check.parse_scan(js, good_json)
    n = next(r[0] for r in rows if r[3])  # a row with members
    m = next(r[0] for r in js_rows if r[4])  # and one with exclusions
    w, wrong_prime = _wrong_prime(js_rows)
    cases = [
        ("wrong order", csv,
         _edit_csv(good_csv, n, lambda f: f"{f[0]},{f[1]},{2 * int(f[2])},{f[3]}"), False),
        ("missing member", csv,
         _edit_csv(good_csv, n, lambda f: ",".join(f[:3] + [";".join(f[3].split(";")[:-1])])),
         False),
        ("missing row", csv, _edit_csv(good_csv, rows[5][0], lambda f: None), False),
        ("certificate exponent", js, _edit_json(good_json, m, _bad_exponent), False),
        ("certificate prime", js, _edit_json(good_json, w, wrong_prime), False),
    ]
    for name, params, text, clean in cases:
        problems = check.check_scan(ml, params, text, seed=0, sample=100)
        if bool(problems) == clean:
            raise SelfTestError(f"scan check, case {name!r}: problems {problems[:3]}")

    trace = ml.prime_progression(10, 3, 1, 6)
    steps = [list(s) for s in trace.steps]
    req = {"op": "progression", "b": 10, "q": 3, "v": 1, "count": 6}
    modulus, prime = steps[-1]  # the last step, so that no later step masks a fault
    composite = next(p for p in range(prime + modulus, prime + 100 * modulus, modulus)
                     if p % 7 == 0)
    wrong_class = next(p for p in range(prime + 2, 10 * prime) if p % modulus != 1
                       and all(p % f for f in range(2, int(p**0.5) + 1)))
    for name, value, clean in [("good", steps, True),
                               ("non-prime", _swap(steps, -1, composite), False),
                               ("wrong congruence", _swap(steps, -1, wrong_class), False),
                               ("not increasing", steps[:-1] + [steps[-2]], False)]:
        if (check.check_request(ml, req, value) is None) != clean:
            raise SelfTestError(f"progression check, case {name!r}")

    N, d = 13, 2
    cross = {"op": "cross", "b": 10, "N": N, "d": d,
             "expect": {"factors": {13: 1}, "order": 6}}
    ppl2 = dict(cross, op="ppl2")
    holds = ml.midy_check_ppl3(10, N, d).holds
    for name, request, value, clean in [
        ("cross agree", cross, [holds] * 3, True),
        ("cross disagree", cross, [holds, not holds, holds], False),
        ("ppl2 agrees with ppl3", ppl2, holds, True),
        ("ppl2 disagrees with ppl3", ppl2, not holds, False),
    ]:
        if (check.check_request(ml, request, value) is None) != clean:
            raise SelfTestError(f"query check, case {name!r}")


def _swap(steps, i, prime):
    out = [list(s) for s in steps]
    out[i][1] = prime
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import midylab
    import midylab.cli  # noqa: F401

    run(midylab)
    print("selftest: every good output passed and every bad one was flagged")
