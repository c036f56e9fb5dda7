"""CLI surface tests: exact outputs, exit codes, formats, scan workers."""

import functools
import hashlib
import io
import json
import math
import os
import pickle
import random
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from midylab import arith, cli, midy
from midylab.errors import BoundedSearchError, DomainError
from midylab.midy import GcdCertificate
from midylab.order import order_mod


def run_cli(argv):
    """Run main() with stdout captured; returns (exit_code, stdout_text)."""
    captured = io.StringIO()
    old = sys.stdout
    sys.stdout = captured
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, captured.getvalue()


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter; returns (process, seconds)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "midylab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=20)
    return proc, time.monotonic() - start


class TestOrderCommand:
    def test_known_value(self):
        code, out = run_cli(["order", "--base", "10", "13"])
        assert code == 0
        assert out == "6\n"

    def test_json(self):
        code, out = run_cli(["order", "--base", "10", "13", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"base": 10, "n": 13, "order": 6}

    def test_domain_error_exit_code(self):
        code, _ = run_cli(["order", "--base", "10", "14"])
        assert code == 1

    def test_rho_budget_ends_a_balanced_semiprime(self):
        # 10000000000000000051 * 30000000000000000041: rho would need about
        # 10**10 steps, so factor stops at RHO_STEP_LIMIT instead.
        proc, elapsed = run_cli_process(
            ["order", "--base", "3", "300000000000000001940000000000000002091"]
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert elapsed < 2

    def test_modulus_past_the_factoring_limit(self):
        # Trial division, a Miller-Rabin test on 13,288 bits and rho would
        # take over 10 s; the bit limit stops factor before any of them.
        proc, elapsed = run_cli_process(["order", "--base", "2", str(10**4000 + 1)])
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: a number of 13288 bits is past the factoring limit of 512 bits\n"
        )
        assert elapsed < 1


class TestExpandCommand:
    def test_digit_string(self):
        code, out = run_cli(["expand", "--base", "10", "1", "13"])
        assert code == 0
        assert out == "076923\n"

    def test_blocks(self):
        code, out = run_cli(["expand", "--base", "10", "1", "13", "--blocks", "3"])
        assert out.splitlines() == ["076923", "07 + 69 + 23 = 99"]

    def test_base_eight(self):
        code, out = run_cli(["expand", "--base", "8", "1", "75", "--blocks", "4"])
        assert out.splitlines()[0] == "00664720155164033235"
        assert out.splitlines()[1].endswith("= 65534")

    def test_large_base_bracketed(self):
        code, out = run_cli(["expand", "--base", "16", "1", "13"])
        assert code == 0
        # 1/13 in base 16 repeats 13b: 0.13b13b...
        assert out == "[1,3,11]\n"

    def test_json_payload(self):
        code, out = run_cli(
            ["expand", "--base", "8", "1", "75", "--blocks", "4", "--format", "json"]
        )
        payload = json.loads(out)
        assert payload["order"] == 20
        assert payload["sum"] == 65534
        assert payload["blocks"] == [int("00664", 8), int("72015", 8), int("51640", 8), int("33235", 8)]

    def test_zero_blocks_is_domain_error(self):
        code, _ = run_cli(["expand", "--base", "10", "1", "13", "--blocks", "0"])
        assert code == 1

    def test_period_past_the_limit(self):
        # 1/1000171 has a period of 1000170 digits in base 10.
        proc, elapsed = run_cli_process(["expand", "--base", "10", "1", "1000171"])
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert elapsed < 1

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_block_sum_past_the_text_limit(self, fmt):
        # One block of the 9966-digit period of 1/9967 in base 10: its sum
        # has more digits than Python turns into text by default.
        proc, elapsed = run_cli_process(
            ["expand", "--base", "10", "1", "9967", "--blocks", "1", "--format", fmt]
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert elapsed < 1
        # Three blocks of 3322 digits stay below the limit and print;
        # 9967 has the property for d = 3, so they sum to 10**3322 - 1.
        code, out = run_cli(["expand", "--base", "10", "1", "9967", "--blocks", "3"])
        assert code == 0
        assert out.splitlines()[1].endswith(" = " + "9" * 3322)

    def test_text_limit_is_checked_on_the_sum(self, monkeypatch, capsys):
        # 1/13 in three blocks: 07 + 69 + 23 = 99, two digits.
        argv = ["expand", "--base", "10", "1", "13", "--blocks", "3"]
        monkeypatch.setattr(cli, "INT_TEXT_DIGIT_LIMIT", 2)
        assert run_cli(argv) == (0, "076923\n07 + 69 + 23 = 99\n")
        monkeypatch.setattr(cli, "INT_TEXT_DIGIT_LIMIT", 1)
        assert run_cli(argv) == (3, "")
        assert capsys.readouterr().err.startswith("error:")


class TestMidyCheckCommand:
    def test_all_methods_report_failure(self):
        code, out = run_cli(["midy-check", "--base", "8", "75", "5", "--method", "all"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all("fails" in line for line in lines)
        assert lines[0].startswith("ppl2:")
        assert lines[1].startswith("ppl3:")
        assert lines[2].startswith("direct:")

    def test_json_round_trip(self):
        code, out = run_cli(
            ["midy-check", "--base", "8", "75", "5", "--method", "all", "--format", "json"]
        )
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["method"] for r in rows] == ["ppl2", "ppl3", "direct"]
        assert all(r["holds"] is False for r in rows)
        # re-running the referenced operation reproduces the values
        for row in rows:
            again = {
                "ppl2": midy.midy_check_ppl2,
                "ppl3": midy.midy_check_ppl3,
                "direct": midy.midy_check_direct,
            }[row["method"]](row["base"], row["n"], row["d"])
            assert again.holds == row["holds"]

    def test_precondition_exit(self):
        code, _ = run_cli(["midy-check", "--base", "10", "13", "4"])
        assert code == 1

    def test_direct_oracle_answers_a_huge_modulus(self):
        # The period of 1/N is about 10**9 digits long; the oracle takes
        # one modular power and agrees with ppl2.
        argv = ["midy-check", "--base", "10", "1000000007", "2"]
        proc, elapsed = run_cli_process([*argv, "--method", "direct"])
        assert proc.returncode == 0
        assert proc.stdout == "direct: holds\n"
        assert run_cli([*argv, "--method", "ppl2"]) == (0, "ppl2: holds\n")
        assert elapsed < 1

    def test_all_methods_factor_n_once(self, monkeypatch):
        # One profile for the three methods; factor(p - 1) calls not counted.
        n = 999983
        seen = []
        real = arith.factor

        def counting(m):
            seen.append(m)
            return real(m)

        monkeypatch.setattr(arith, "factor", counting)
        code, out = run_cli(["midy-check", "--method", "all", "--base", "10", str(n), "2"])
        assert (code, len(out.splitlines())) == (0, 3)
        assert seen.count(n) == 1

    def test_all_methods_agree_on_a_22_digit_modulus(self):
        # N is the product of two primes near 3 * 10**10 and 7 * 10**10.
        code, out = run_cli(
            ["midy-check", "--method", "all", "--base", "10", "2100000001060000000033", "2"]
        )
        assert code == 0
        assert out == (
            "ppl2: fails (p=70000000033, nu_p(n)=1, nu_p(d)=0)\n"
            "ppl3: fails (p=70000000033, nu_p(n)=1, nu_p(d)=0)\n"
            "direct: fails (x=1)\n"
        )


class TestMidySetCommand:
    def test_exact_json_shape(self):
        code, out = run_cli(["midy-set", "--base", "8", "75", "--format", "json"])
        assert code == 0
        assert out == '{"base":8,"n":75,"order":20,"midy_set":[4,20]}\n'

    def test_json_round_trip(self):
        _, out = run_cli(["midy-set", "--base", "10", "91", "--format", "json"])
        row = json.loads(out)
        again = midy.midy_set(row["base"], row["n"])
        assert list(again.members) == row["midy_set"]
        assert again.order == row["order"]

    def test_human(self):
        code, out = run_cli(["midy-set", "--base", "10", "13"])
        assert out.splitlines() == ["order: 6", "members: 2 3 6"]

    def test_order_past_the_divisor_limit(self):
        # The product of the primes 7..317 has 428 bits, and its order mod
        # 10 has 212,336,640 divisors: listing them ran out of memory.
        n = math.prod(p for p in range(7, 318) if arith.is_prime(p))
        proc, elapsed = run_cli_process(["midy-set", "--base", "10", str(n)])
        assert proc.returncode == 3
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error:")
        assert "212336640 divisors" in line
        assert elapsed < 1


class TestJenkinsCommand:
    def test_both_routes(self):
        code, out = run_cli(
            ["jenkins", "--base", "10", "--d", "3", "--prime", "7:1", "--prime", "13:1"]
        )
        assert code == 0
        assert out.splitlines() == ["formula: holds", "gcd: holds"]

    def test_gcd_certificate(self):
        _, out = run_cli(
            [
                "jenkins", "--base", "10", "--d", "2",
                "--prime", "11:1", "--prime", "101:1",
                "--route", "gcd", "--format", "json",
            ]
        )
        row = json.loads(out)
        assert row["holds"] is False
        assert row["certificate"] == {"g": 11}

    def test_bad_prime_spec_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["jenkins", "--base", "10", "--d", "3", "--prime", "7"])
        assert info.value.code == 2

    def test_hypothesis_violation_domain_error(self):
        code, _ = run_cli(["jenkins", "--base", "10", "--d", "3", "--prime", "11:1"])
        assert code == 1

    def test_formula_route_never_builds_the_modulus(self):
        # 11**(10**7) would take seconds to build; the human formula line
        # needs neither it nor the lifted power.
        proc, elapsed = run_cli_process(
            ["jenkins", "--base", "10", "--d", "2", "--prime", "11:10000000",
             "--route", "formula"]
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "formula: holds\n", "")
        assert elapsed < 1

    @pytest.mark.parametrize(
        "prime,extra,printed",
        [
            ("11:10000000", [], "formula: holds\n"),
            ("11:5000", ["--route", "formula", "--format", "json"], ""),
        ],
        ids=["gcd-route", "json"],
    )
    def test_modulus_past_the_bit_limit(self, prime, extra, printed):
        # The gcd route and JSON need N, so both stop before building it.
        # 11 has 4 bits, so the bound counts 4 * h bits.
        proc, elapsed = run_cli_process(
            ["jenkins", "--base", "10", "--d", "2", "--prime", prime, *extra]
        )
        bits = 4 * int(prime.split(":")[1])
        assert proc.returncode == 3
        assert proc.stdout == printed
        assert proc.stderr.startswith(f"error: the modulus may have {bits} bits")
        assert "Traceback" not in proc.stderr
        assert elapsed < 1

    def test_prime_past_the_factoring_limit(self):
        # is_prime(2**3217 - 1), a Mersenne prime, took 3.4 s on a 2-vCPU
        # VM when it ran before factor refused p - 1.
        proc, elapsed = run_cli_process(
            ["jenkins", "--base", "10", "--d", "2", "--prime",
             f"{2**3217 - 1}:1", "--route", "formula"]
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: a number of 3217 bits is past the factoring limit of 512 bits\n"
        )
        assert elapsed < 1


class TestPrimesCommand:
    def test_progression(self):
        code, out = run_cli(
            ["primes", "--base", "10", "--q", "3", "--v", "1", "--count", "2"]
        )
        assert code == 0
        assert out.splitlines() == ["7 (1 mod 3)", "19 (1 mod 9)"]

    def test_json(self):
        _, out = run_cli(
            ["primes", "--base", "10", "--q", "2", "--v", "1", "--count", "2",
             "--format", "json"]
        )
        row = json.loads(out)
        assert row["primes"] == [7, 17]
        assert row["moduli"] == [2, 8]

    def test_even_prime_witness_base(self):
        # the smallest witness of 2 in base 3 is 4; the progression
        # starts at the least prime with the property
        code, out = run_cli(
            ["primes", "--base", "3", "--q", "2", "--v", "1", "--count", "3"]
        )
        assert code == 0
        assert out.splitlines() == ["5 (1 mod 2)", "17 (1 mod 8)", "257 (1 mod 32)"]

    def test_steps_agree_with_midy_check_and_order(self):
        # Each step P with modulus m has the property for m, and m divides
        # the order of the base mod P, as the other subcommands print them.
        rng = random.Random(31)
        for b in range(2, 63):
            q = rng.choice((2, 3, 5, 7, 11, 13))
            v = rng.randint(1, 3 if q < 7 else 2)
            code, out = run_cli(["primes", "--base", str(b), "--q", str(q), "--v", str(v),
                                 "--count", str(rng.randint(4, 12)), "--format", "json"])
            assert code == 0, (b, q, v)
            row = json.loads(out)
            assert (row["base"], row["q"], row["v"]) == (b, q, v)
            assert len(row["primes"]) == len(row["moduli"]) >= 4
            for P, m in zip(row["primes"], row["moduli"]):
                code, out = run_cli(["midy-check", "--base", str(b), str(P), str(m),
                                     "--format", "json"])
                assert code == 0 and json.loads(out)["holds"] is True, (b, P, m)
                code, out = run_cli(["order", "--base", str(b), str(P), "--format", "json"])
                assert code == 0 and json.loads(out)["order"] % m == 0, (b, P, m)

    def test_search_exhaustion_exit_code(self):
        code, _ = run_cli(
            ["primes", "--base", "10", "--q", "3", "--v", "4", "--count", "1",
             "--bound", "50"]
        )
        assert code == 3

    def test_count_past_the_limit(self):
        proc, elapsed = run_cli_process(
            ["primes", "--base", "10", "--q", "2", "--v", "1", "--count", "3000"]
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "error: count 3000 is past the limit of 100 primes\n"
        assert elapsed < 1

    def test_bits_past_the_limit(self):
        # Each step gains at least the 21 bits of 2**20: 60 primes took 7.3 s.
        proc, elapsed = run_cli_process(
            ["primes", "--base", "10", "--q", "2", "--v", "20", "--count", "60"]
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: count 60 times the bits of 2**20 is past the limit of 400\n"
        )
        assert elapsed < 1

    def test_huge_q_is_refused_before_its_primality_test(self):
        # is_prime(2**4423 - 1), a Mersenne prime, took 7.5 s on a 2-vCPU
        # VM when it ran before the bit limit.
        proc, elapsed = run_cli_process(
            ["primes", "--base", "10", "--q", str(2**4423 - 1), "--v", "1",
             "--count", "1"]
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: count 1 times the bits of (a 4423-bit q)**1 is past the "
            "limit of 400\n"
        )
        assert elapsed < 1


class TestScanCommand:
    def test_csv_shape(self):
        code, out = run_cli(["scan", "--base", "10", "--from", "2", "--to", "13"])
        lines = out.splitlines()
        assert lines[0] == "n,base,order,midy_set"
        assert lines[1] == "3,10,1,"
        assert "13,10,6,2;3;6" in lines

    def test_rows_ascending_and_reverifiable(self):
        _, out = run_cli(
            ["scan", "--base", "8", "--from", "2", "--to", "80", "--format", "json"]
        )
        rows = [json.loads(line) for line in out.splitlines()]
        ns = [r["n"] for r in rows]
        assert ns == sorted(ns)
        for r in rows:
            s = midy.midy_set(r["base"], r["n"])
            assert list(s.members) == r["midy_set"]
            assert s.order == r["order"]
            assert order_mod(r["base"], r["n"]) == r["order"]
            members = set(r["midy_set"])
            for item in r["excluded"]:
                assert item["d"] not in members
                assert item["certificate"] is not None

    def test_jobs_do_not_change_output(self, forks, monkeypatch):
        # Four chunks over two forked workers, whatever the host's CPU count.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["scan", "--base", "10", "--from", "2", "--to", "1000"]
        _, seq = run_cli(argv)
        _, par = run_cli(argv + ["--jobs", "2"])
        assert forks == [2]
        assert seq == par

    def test_without_fork_the_scan_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.delattr(cli.os, "fork")
        argv = ["scan", "--base", "10", "--from", "2", "--to", "1000"]
        assert run_cli(argv + ["--jobs", "2"]) == (0, serial_scan(tuple(argv)))

    def test_bad_range(self):
        for fmt in ("csv", "json"):
            code, out = run_cli(
                ["scan", "--base", "10", "--from", "9", "--to", "4", "--format", fmt]
            )
            assert code == 1
            assert out == ""

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(SystemExit) as info:
            cli.main(
                ["scan", "--base", "10", "--from", "2", "--to", "20", "--jobs", jobs]
            )
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "jobs,chunks,cpus,want",
        [
            (8, 100, 2, 2),  # capped by the CPU count
            (8, 3, 64, 3),  # capped by the chunks
            (3, 100, None, 1),  # CPU count unknown: no pool
            (2, 100, 64, 2),
        ],
    )
    def test_worker_cap(self, forks, monkeypatch, jobs, chunks, cpus, want):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        stop = 1 + chunks * cli.SCAN_CHUNK_ROWS  # n = 2 .. stop, full chunks
        argv = ["scan", "--base", "10", "--from", "2", "--to", str(stop)]
        code, pooled = run_cli(argv + ["--jobs", str(jobs)])
        assert code == 0
        assert forks == ([want] if want > 1 else [])
        assert pooled == serial_scan(tuple(argv))


@functools.lru_cache(maxsize=None)
def serial_scan(argv):
    return run_cli(list(argv))[1]


@pytest.fixture
def forks(monkeypatch):
    """Record how many workers each forked scan starts, in a list."""
    started = []
    fork, forked_scan = os.fork, cli._forked_scan

    def counting_fork():
        started[-1] += 1
        return fork()

    def recording_scan(*args):
        started.append(0)
        return forked_scan(*args)

    monkeypatch.setattr(cli.os, "fork", counting_fork)
    monkeypatch.setattr(cli, "_forked_scan", recording_scan)
    return started


class TestScanStreaming:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_written_before_the_last_row_is_decided(
        self, forks, monkeypatch, tmp_path, jobs, fmt
    ):
        # Each decided row appends a byte to a log that forked workers
        # share, and brings a 1,000-byte line after it: a chunk is then
        # larger than a pipe holds, so a worker waits for the parent to
        # read each chunk before it renders the next.
        log = tmp_path / "decided"
        log.write_bytes(b"")
        pad = "#" * 999 + "\n"
        scan_row = cli._scan_row

        def logged_row(*args):
            with open(log, "ab") as f:
                f.write(b".")
            return scan_row(*args) + pad

        writes = []  # (rows decided so far, text) per write

        class RecordingStream:
            def write(self, text):
                writes.append((log.stat().st_size, text))

        monkeypatch.setattr(cli, "_scan_row", logged_row)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        # 12 chunks: many more than two workers can hold at once.
        argv = ["scan", "--base", "10", "--from", "2", "--to", "3000",
                "--format", fmt, "--jobs", str(jobs)]
        monkeypatch.setattr(sys, "stdout", RecordingStream())
        assert cli.main(argv) == 0
        monkeypatch.undo()

        assert forks == ([2] if jobs == 2 else [])
        header, rows = ("", serial_scan(tuple(argv[:-2])).splitlines(True))
        if fmt == "csv":
            header, rows = rows[0], rows[1:]
            assert writes[0] == (0, header)
            writes = writes[1:]
        assert header + "".join(text for _, text in writes) == header + "".join(
            row + pad for row in rows
        )
        if jobs == 1:
            assert len(writes) == 12  # one per chunk
        else:
            # The parent passes each frame on in blocks, never whole.
            assert len(writes) > 12
            assert max(len(text) for _, text in writes) <= cli.FRAME_BLOCK
        decided = log.stat().st_size
        assert decided == len(rows) == sum(1 for n in range(2, 3001) if n % 2 and n % 5)
        assert writes[0][0] < decided


class TestScanBudget:
    def test_bounded_search_error_pickles(self):
        exc = pickle.loads(pickle.dumps(BoundedSearchError("out of budget", 5)))
        assert type(exc) is BoundedSearchError
        assert str(exc) == "out of budget"
        assert exc.bound == 5

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rho_budget_in_a_scan_exits_3(self, monkeypatch, capsys, jobs):
        # The first chunk near 10**12 has rows with two prime factors above
        # 1000, which only rho splits.  At jobs 2 the forked worker, which
        # inherits the patched limit, stops at that chunk, and the parent
        # renders it again and raises the error itself.
        monkeypatch.setattr(arith, "RHO_STEP_LIMIT", 1)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, out = run_cli(["scan", "--base", "7", "--from", "1000000000001",
                             "--to", "1000000000600", "--jobs", str(jobs)])
        assert code == 3
        assert out == "n,base,order,midy_set\n"
        assert capsys.readouterr().err.startswith("error: no factor of ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scan_past_the_factoring_limit_exits_3(self, jobs):
        # Three chunks of 3322-bit rows: the sieve refuses each window
        # before it is built, where rho would run for minutes.  At jobs 2
        # each worker stops at its first chunk, and the parent renders
        # the first chunk again and raises the error itself.
        lo = 10**1000 + 1
        proc, elapsed = run_cli_process(
            ["scan", "--base", "10", "--from", str(lo), "--to", str(lo + 700),
             "--jobs", jobs]
        )
        assert proc.returncode == 3
        assert proc.stdout == "n,base,order,midy_set\n"
        assert proc.stderr == (
            "error: a number of 3322 bits is past the factoring limit of 512 bits\n"
        )
        assert elapsed < 1

    @pytest.mark.parametrize(
        "error",
        [BoundedSearchError("out of budget", 5), DomainError("no such row")],
        ids=["bounded", "domain"],
    )
    def test_a_worker_error_ends_the_scan_as_at_jobs_1(
        self, monkeypatch, capsys, tmp_path, error
    ):
        # n = 1001 is in the fourth chunk, 770..1025, which the second
        # worker renders; the three before it are written whole, and no
        # row of the fourth, to a text stream as to a file, whose bytes
        # layer the parent writes the frames to.
        scan_row = cli._scan_row

        def failing_row(b, n, factors, fmt, orders):
            if n == 1001:
                raise error
            return scan_row(b, n, factors, fmt, orders)

        monkeypatch.setattr(cli, "_scan_row", failing_row)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["scan", "--base", "10", "--from", "2", "--to", "2000"]
        seen = []
        for jobs in ("1", "2"):
            seen.append((*run_cli(argv + ["--jobs", jobs]), capsys.readouterr().err))
            code = run_cli_to_file(argv + ["--jobs", jobs], tmp_path / jobs)
            seen.append((code, (tmp_path / jobs).read_text(), capsys.readouterr().err))
        assert seen[1:] == seen[:1] * 3
        code, out, err = seen[0]
        assert code == (3 if isinstance(error, BoundedSearchError) else 1)
        assert out.splitlines()[-1].startswith("769,")
        assert err == f"error: {error}\n"


class TestScanWorkerCrash:
    def test_unexpected_exception_ends_the_scan(self):
        # A bug in a worker: the scan ends with a nonzero exit instead of
        # waiting for a chunk that never comes, and the child, which
        # inherited the parent's stdout buffer, does not print the
        # header again.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (
            "import sys\n"
            "from midylab import cli\n"
            "def boom(*args):\n"
            "    raise ZeroDivisionError('boom')\n"
            "cli._scan_row = boom\n"
            "cli.os.cpu_count = lambda: 2\n"
            "sys.exit(cli.main(['scan', '--base', '10', '--from', '2',"
            " '--to', '100000', '--jobs', '2']))\n"
        )
        # Buffered stdout, so that the header is still in the buffer at fork.
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=20)
        assert time.monotonic() - start < 5
        assert proc.returncode != 0
        assert proc.stdout == "n,base,order,midy_set\n"
        # The workers stop without a word; the parent renders the first
        # chunk itself and raises the error once, as --jobs 1 does.
        assert proc.stderr.count("Traceback") == 1
        assert proc.stderr.count("ZeroDivisionError: boom") == 1
        assert "RuntimeError" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_workers_stop_when_the_main_process_is_killed(self):
        # Rows of 20 ms make a chunk last 5 s.  The main process, alone in
        # its session, is killed while both workers render their first
        # chunk; each must stop within a row, not when it writes a frame.
        assert_workers_stop_with_the_main_process(
            "scan_row = cli._scan_row\n"
            "def slow_row(*args):\n"
            "    time.sleep(0.02)\n"
            "    return scan_row(*args)\n"
            "cli._scan_row = slow_row\n",
            ["--from", "2", "--to", "100000"],
        )

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_workers_stop_mid_sieve_when_the_main_process_is_killed(self):
        # Each cofactor rho gets takes 20 ms more.  Past 10**14 a chunk
        # sends 80 of its 102 rows coprime to 10 to rho, and dividing
        # out the primes of the rest would cost 175 such calls before its
        # first row; a worker must stop within a row of the sieve too.
        assert_workers_stop_with_the_main_process(
            "factor_into = arith._factor_into\n"
            "def slow_factor_into(*args):\n"
            "    time.sleep(0.02)\n"
            "    return factor_into(*args)\n"
            "arith._factor_into = slow_factor_into\n",
            ["--from", str(10**14 + 1), "--to", str(10**14 + 100000)],
        )

    def test_killed_worker_leaves_its_chunks_to_the_parent(self, forks, monkeypatch):
        # Each worker is killed at its first chunk from row 770 on (the
        # fourth and fifth of eight); the parent renders them and every
        # chunk after them, and the scan ends as --jobs 1 does.
        parent = os.getpid()
        scan_rows = cli._scan_rows

        def killed_in_a_worker(task):
            if os.getpid() != parent and task[1] >= 770:
                os.kill(os.getpid(), signal.SIGKILL)
            return scan_rows(task)

        monkeypatch.setattr(cli, "_scan_rows", killed_in_a_worker)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["scan", "--base", "10", "--from", "2", "--to", "2000"]
        assert run_cli(argv + ["--jobs", "2"]) == (0, serial_scan(tuple(argv)))
        assert forks == [2]


def assert_workers_stop_with_the_main_process(patch, window):
    """Run a base-10 scan at --jobs 2, with patch run first, as the only
    process of a new session; SIGKILL the main process once both workers
    have started, and assert every process of the session is gone within 1 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys, time\n"
        "from midylab import arith, cli\n"
        + patch
        + "cli.os.cpu_count = lambda: 2\n"
        f"sys.exit(cli.main(['scan', '--base', '10', *{window!r}, '--jobs', '2']))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + 10
        while len(session_processes(proc.pid)) < 3:
            assert time.monotonic() < deadline, "the workers never started"
            time.sleep(0.01)
        time.sleep(0.1)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 1
        while session_processes(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert session_processes(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def session_processes(sid):
    """The pids of the processes of session sid that are not zombies."""
    pids = []
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except (FileNotFoundError, ProcessLookupError):
            continue  # the process ended while the list was read
        # After "(comm)": state, ppid, process group, session, ...
        state, _, _, session = stat[stat.rindex(")") + 2 :].split()[:4]
        if int(session) == sid and state != "Z":
            pids.append(int(name))
    return pids


def run_cli_to_file(argv, path, encoding="utf-8"):
    """Run main() with stdout a text file, which has a bytes layer below
    it as the real stdout does; returns the exit code."""
    old = sys.stdout
    with open(path, "w", encoding=encoding) as sys.stdout:
        try:
            return cli.main(argv)
        finally:
            sys.stdout = old


@pytest.fixture
def parent_renders(monkeypatch):
    """Record the first row of each chunk the parent renders itself."""
    parent = os.getpid()
    rendered = []
    scan_rows = cli._scan_rows

    def recording_rows(task):
        if os.getpid() == parent:
            rendered.append(task[1])
        return scan_rows(task)

    monkeypatch.setattr(cli, "_scan_rows", recording_rows)
    return rendered


class TestScanFrames:
    """Frames of a forked scan, copied to a stdout with a bytes layer."""

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
    def test_jobs_do_not_change_the_bytes(self, forks, monkeypatch, tmp_path, encoding):
        # A UTF-16 stdout does not write the rows' ASCII as is, so the
        # frames go through its text layer there.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["scan", "--base", "10", "--from", "2", "--to", "1000"]
        for jobs in ("1", "2"):
            path = tmp_path / jobs
            assert run_cli_to_file(argv + ["--jobs", jobs], path, encoding) == 0
        assert forks == [2]
        assert (tmp_path / "2").read_bytes() == (tmp_path / "1").read_bytes()

    def test_worker_killed_mid_frame(self, forks, parent_renders, monkeypatch, tmp_path):
        # The second worker sends the header of chunk 770..1025 and its
        # first rows, the last of them cut short, and is killed.  The
        # parent has copied those bytes; it writes the rest of that chunk
        # and renders the later chunks of that worker, and nothing else.
        argv = ["scan", "--base", "10", "--from", "2", "--to", "2000"]
        want = serial_scan(tuple(argv))
        parent_renders.clear()
        write_frame = cli._write_frame

        def killed_mid_frame(pipe, rows):
            if rows[0].startswith(b"771,"):
                pipe.write(b"%d\n" % sum(map(len, rows)))
                pipe.writelines(rows[:40])
                pipe.write(rows[40][:5])
                pipe.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            write_frame(pipe, rows)

        monkeypatch.setattr(cli, "_write_frame", killed_mid_frame)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert run_cli_to_file(argv + ["--jobs", "2"], tmp_path / "out") == 0
        assert forks == [2]
        assert (tmp_path / "out").read_text() == want
        assert parent_renders == [770, 1282, 1794]

    @pytest.mark.parametrize("to_file", [False, True], ids=["text", "bytes"])
    def test_a_chunk_with_no_row_comes_as_an_empty_frame(
        self, forks, parent_renders, monkeypatch, tmp_path, to_file
    ):
        # 258, alone in the second chunk, shares 2 with the base.  Its
        # worker sends a frame of 0 bytes, which the parent takes as the
        # chunk's text instead of rendering the chunk again.
        argv = ["scan", "--base", "10", "--from", "2", "--to", "258"]
        want = serial_scan(tuple(argv))
        parent_renders.clear()
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        if to_file:
            assert run_cli_to_file(argv + ["--jobs", "2"], tmp_path / "out") == 0
            got = (tmp_path / "out").read_text()
        else:
            code, got = run_cli(argv + ["--jobs", "2"])
            assert code == 0
        assert forks == [2]
        assert got == want
        assert parent_renders == []

    def test_each_chunk_is_flushed_before_the_next_frame(self, forks, monkeypatch, tmp_path):
        # A chunk of these rows is smaller than the bytes layer's buffer,
        # which would hold it back until the next chunk pushed it out: a
        # terminal would show each chunk one chunk late.  The parent
        # flushes after every chunk, so when it starts on a frame the
        # file holds the header and every chunk before it.
        argv = ["scan", "--base", "10", "--from", "2", "--to", "1000"]
        lines = serial_scan(tuple(argv)).encode().splitlines(True)
        want = [
            sum(len(line) for line in lines[1:] if int(line.split(b",")[0]) < a)
            + len(lines[0])
            for a in range(2, 1001, cli.SCAN_CHUNK_ROWS)
        ]
        path = tmp_path / "out"
        seen = []
        copy_frame = cli._copy_frame

        def recording_copy(pipe, write):
            seen.append(path.stat().st_size)
            return copy_frame(pipe, write)

        monkeypatch.setattr(cli, "_copy_frame", recording_copy)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert run_cli_to_file(argv + ["--jobs", "2"], path) == 0
        assert forks == [2]
        assert len(want) == 4
        assert seen == want
        assert path.read_bytes() == b"".join(lines)

    def test_parent_holds_one_block_of_a_frame(self, forks, monkeypatch, tmp_path):
        # Three chunks of JSON rows past 10**12, about 0.9 MB each.  The
        # parent copies each frame in blocks of FRAME_BLOCK bytes and never
        # holds a frame whole: its traced peak stays under half of one
        # (it was 2,021 KB when it read, decoded and wrote each frame
        # whole, against 2,629 KB of output).
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        lo = 10**12 + 1
        argv = ["scan", "--base", "7", "--from", str(lo), "--to", str(lo + 767),
                "--format", "json", "--jobs", "2"]
        tracemalloc.start()
        try:
            code = run_cli_to_file(argv, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert forks == [2]
        frame = (tmp_path / "out").stat().st_size / 3
        assert peak < frame / 2, (peak, frame)


class TestScanBrokenPipe:
    def test_reader_going_away_ends_quietly(self, tmp_path):
        # scan | head: the reader closes the pipe long before the range
        # ends.  The scan must stop with exit code 1, not a traceback.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "midylab.cli", "scan", "--base", "10",
                "--from", "2", "--to", str(10**30), "--jobs", "2"]
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
            try:
                head = proc.stdout.read(60)
                proc.stdout.close()
                closed = time.monotonic()
                code = proc.wait(timeout=20)
                waited = time.monotonic() - closed
            finally:
                proc.kill()
                proc.wait()
        assert head.startswith(b"n,base,order,midy_set\n3,10,1,\n")
        assert "Traceback" not in (tmp_path / "stderr").read_text()
        assert code == 1
        assert waited < 5


class TestCertificateJson:
    @pytest.mark.parametrize(
        "cert,want",
        [
            (midy.midy_check_ppl2(8, 75, 10).certificate, {"p": 3, "nu_n": 1, "nu_d": 0}),
            (midy.midy_check_direct(8, 75, 10).certificate, {"x": 1}),
            (GcdCertificate(g=11), {"g": 11}),
        ],
        ids=["PrimeCertificate", "OracleCertificate", "GcdCertificate"],
    )
    def test_matches_asdict(self, cert, want):
        """The dict dataclasses.asdict made of each certificate while the
        records were dataclasses, pinned with its key order."""
        got = cli._certificate_json(cert)
        assert type(got) is dict
        assert got == want
        assert list(got) == list(want)

    def test_none(self):
        assert cli._certificate_json(None) is None


def divisors_above_one(n):
    """The divisors d > 1 of n, ascending, expanded from arith.factor(n)."""
    divs = [1]
    for p, e in arith.factor(n):
        divs = [d * p**j for j in range(e + 1) for d in divs]
    return sorted(divs)[1:]


def reference_csv_row(b, n):
    """A scan's CSV line for n, built from midy_set alone."""
    result = midy.midy_set(b, n)
    return f"{n},{b},{result.order},{';'.join(map(str, result.members))}\n"


def reference_json_row(b, n):
    """A scan's JSON line for n, built through the public deciders and the
    json encoder rather than the scan's own renderer."""
    result = midy.midy_set(b, n)
    divisors = divisors_above_one(result.order)
    excluded = [
        {
            "d": d,
            "certificate": midy.midy_check_ppl2(b, n, d).certificate._asdict(),
        }
        for d in divisors
        if d not in result.members
    ]
    row = {
        "n": n,
        "base": b,
        "order": result.order,
        "midy_set": list(result.members),
        "excluded": excluded,
    }
    return json.JSONEncoder(separators=(",", ":")).encode(row) + "\n"


class TestScanRowJson:
    """cli._scan_row renders JSON rows as text; each must be the line the
    json encoder makes of the same facts."""

    def assert_rows_match(self, b, ns):
        """Compare the rows of ns in base b; returns the scan's lines."""
        rows = []
        for n in ns:
            rows.append(cli._scan_row(b, n, arith.factor(n), "json", {}))
            assert rows[-1] == reference_json_row(b, n), (b, n)
        return rows

    def test_base_three_even_moduli(self):
        rows = self.assert_rows_match(3, [n for n in range(1, 301) if n % 3])
        # The even N carry the p = 2 certificates of the 2-adic allowance.
        assert any('"p":2,' in row for row in rows)

    def test_certificates_are_those_of_ppl2(self):
        # Base 3 over 1..2000 has culprits at odd and even p, each with
        # nu_p(d) = 0 and > 0; every kind must occur.
        kinds = set()
        certificates = 0
        for line in cli._scan_text((3, 1, 2001, 2001, "json", {})).splitlines():
            row = json.loads(line)
            n = row["n"]
            for item in row["excluded"]:
                cert = item["certificate"]
                assert cert == midy.midy_check_ppl2(3, n, item["d"]).certificate._asdict()
                kinds.add((cert["p"] == 2, cert["nu_d"] > 0))
                certificates += 1
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}
        assert certificates == 4398

    def test_base_seven_near_10_to_12(self):
        self.assert_rows_match(7, [10**12 + i for i in (1, 2, 3, 4, 8)])

    def test_no_excluded_divisor(self):
        assert midy.midy_set(10, 13).members == (2, 3, 6)
        [row] = self.assert_rows_match(10, [13])
        assert row.endswith('"excluded":[]}\n')

    def test_empty_midy_set(self):
        for b, n in ((10, 27), (7, 10**12 + 2), (10, 3)):
            assert midy.midy_set(b, n).members == ()
            self.assert_rows_match(b, [n])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_base_matches_the_public_deciders(self, fmt):
        # Every base the CLI accepts, every n <= 200 coprime to it: the
        # chunk's text against rows built by midy_set, the ppl2
        # certificates and the divisors of the order expanded here.
        reference = reference_json_row if fmt == "json" else reference_csv_row
        for b in range(2, 63):
            want = "".join(reference(b, n) for n in range(1, 201) if math.gcd(b, n) == 1)
            assert cli._scan_text((b, 1, 201, 201, fmt, {})) == want, b


class TestScanGolden:
    """scan output pinned byte for byte by its sha256 and length."""

    @pytest.mark.parametrize(
        "args,digest,size",
        [
            (
                ["--base", "10", "--from", "2", "--to", "5000"],
                "bda8c5f42699e2a0c640c22f38b558bc1c94903deb71aa882cac58ee375d911c",
                59946,
            ),
            (
                # Even N: the 2-adic allowance and its certificates.
                ["--base", "3", "--from", "2", "--to", "3000", "--format", "json"],
                "2282c68be90aaa917883acb332bf71b3372de42cc459e2eb13eecd839fab60b4",
                505884,
            ),
            (
                ["--base", "7", "--from", "1000000000001", "--to", "1000000000200",
                 "--format", "json"],
                "8298844462a16fce6e17b8d672806dee17d26a2277c4001ba7f79ce62b44e932",
                711862,
            ),
        ],
    )
    def test_digest(self, args, digest, size):
        code, out = run_cli(["scan"] + args)
        assert code == 0
        data = out.encode("ascii")
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2

    def test_base_out_of_range(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["order", "--base", "63", "13"])
        assert info.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["order", "13"])
        assert info.value.code == 2
