"""Command-line surface: one subcommand per public operation.

Human-readable lines by default; --format json emits one JSON object per
result with stable key names.  Exit codes: 0 success, 1 domain or
precondition error, 2 usage error, 3 bounded-search exhaustion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import arith, expansion, jenkins, midy, progression
from .arith import Factorization
from .errors import BoundedSearchError, MidylabError
from .midy import GcdCertificate, OracleCertificate, PrimeCertificate
from .order import _order_divisors, _profile, modulus_profile, order_mod

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SEARCH = 3


# One encoder for every line: json.dumps builds a new encoder per call
# whenever separators are given.
_json = json.JSONEncoder(separators=(",", ":")).encode


def _format_digits(digits, base: int) -> str:
    if base <= 10:
        return "".join(str(d) for d in digits)
    return "[" + ",".join(str(d) for d in digits) + "]"


def _certificate_json(cert):
    # Every certificate is a flat named tuple of ints; its dict has the
    # keys in field order.
    return None if cert is None else cert._asdict()


def _certificate_text(cert) -> str:
    if cert is None:
        return ""
    if isinstance(cert, PrimeCertificate):
        return f" (p={cert.p}, nu_p(n)={cert.nu_n}, nu_p(d)={cert.nu_d})"
    if isinstance(cert, OracleCertificate):
        return f" (x={cert.x})"
    if isinstance(cert, GcdCertificate):
        return f" (g={cert.g})"
    raise TypeError(f"unknown certificate {cert!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_order(args, out) -> int:
    L = order_mod(args.base, args.n)
    if args.format == "json":
        out.write(_json({"base": args.base, "n": args.n, "order": L}) + "\n")
    else:
        out.write(f"{L}\n")
    return EXIT_OK


# Python's default limit on the decimal digits of an int it converts to
# text.  expand writes the block sum, which no block exceeds, as decimal,
# so a sum with more digits than this ends with exit 3, not a ValueError.
INT_TEXT_DIGIT_LIMIT = 4300


def _cmd_expand(args, out) -> int:
    e = expansion.period_digits(args.x, args.n, args.base)
    blocks = (
        expansion.blocks_and_sum(e, args.blocks) if args.blocks is not None else None
    )
    if blocks is not None and blocks.block_sum >= 10**INT_TEXT_DIGIT_LIMIT:
        raise BoundedSearchError(
            f"the block sum has more than {INT_TEXT_DIGIT_LIMIT} decimal digits",
            INT_TEXT_DIGIT_LIMIT,
        )
    if args.format == "json":
        payload = {
            "base": args.base,
            "n": args.n,
            "x": args.x,
            "order": len(e.digits),
            "digits": list(e.digits),
        }
        if blocks is not None:
            payload["d"] = blocks.count
            payload["blocks"] = list(blocks.blocks)
            payload["sum"] = blocks.block_sum
        out.write(_json(payload) + "\n")
    else:
        out.write(_format_digits(e.digits, args.base) + "\n")
        if blocks is not None:
            k = blocks.length
            parts = [
                _format_digits(e.digits[j * k : (j + 1) * k], args.base)
                for j in range(blocks.count)
            ]
            out.write(" + ".join(parts) + f" = {blocks.block_sum}\n")
    return EXIT_OK


def _write_verdict(out, fmt, base, n, d, holds, method, cert) -> None:
    if fmt == "json":
        out.write(
            _json(
                {
                    "base": base,
                    "n": n,
                    "d": d,
                    "holds": holds,
                    "method": method,
                    "certificate": _certificate_json(cert),
                }
            )
            + "\n"
        )
    else:
        state = "holds" if holds else "fails"
        out.write(f"{method}: {state}{_certificate_text(cert)}\n")


_METHODS = {"ppl2": midy._ppl2, "ppl3": midy._ppl3, "direct": midy._direct}


def _cmd_midy_check(args, out) -> int:
    methods = list(_METHODS) if args.method == "all" else [args.method]
    profile = modulus_profile(args.base, args.n)
    for name in methods:
        holds, method, cert = _METHODS[name](profile, args.d)
        _write_verdict(out, args.format, args.base, args.n, args.d, holds, method, cert)
    return EXIT_OK


def _cmd_midy_set(args, out) -> int:
    result = midy.midy_set(args.base, args.n)
    if args.format == "json":
        out.write(
            _json(
                {
                    "base": result.base,
                    "n": result.modulus,
                    "order": result.order,
                    "midy_set": list(result.members),
                }
            )
            + "\n"
        )
    else:
        out.write(f"order: {result.order}\n")
        out.write("members: " + " ".join(str(d) for d in result.members) + "\n")
    return EXIT_OK


def _cmd_jenkins(args, out) -> int:
    inst = jenkins.jenkins_instance(args.base, args.d, args.prime)
    routes = ["formula", "gcd"] if args.route == "both" else [args.route]
    # Only JSON prints N, and the formula route never builds it.
    n = inst.modulus if args.format == "json" else None
    for route in routes:
        if route == "formula":
            holds = jenkins.jenkins_check(inst)
            cert = None
        else:
            g = jenkins._block_gcd(inst)
            holds = g == 1
            cert = None if holds else GcdCertificate(g=g)
        _write_verdict(out, args.format, inst.base, n, inst.d, holds, route, cert)
    return EXIT_OK


def _cmd_primes(args, out) -> int:
    trace = progression.prime_progression(
        args.base, args.q, args.v, args.count, bound=args.bound
    )
    if args.format == "json":
        out.write(
            _json(
                {
                    "base": trace.base,
                    "q": trace.q,
                    "v": trace.v,
                    "primes": list(trace.primes),
                    "moduli": list(trace.moduli),
                }
            )
            + "\n"
        )
    else:
        for modulus, prime in trace.steps:
            out.write(f"{prime} (1 mod {modulus})\n")
    return EXIT_OK


# Rows per scan chunk.  Each chunk is decided and rendered by one call of
# _scan_rows, in a forked worker when --jobs > 1, and written as soon as
# it is its turn.  Smaller chunks cost more frames; larger ones leave the
# workers unbalanced on short ranges.
SCAN_CHUNK_ROWS = 256


def _scan_row(b: int, n: int, factors: Factorization, fmt: str, orders: dict) -> str:
    """The line of n, coprime to b, rendered as fmt; factors is n's
    factorization as the chunk sieve made it, so it is not tested again."""
    profile = _profile(b, n, factors, orders)
    divisors = _order_divisors(profile)
    culprits = midy._ppl2_verdicts(profile, divisors)
    if fmt != "json":
        members = ";".join([str(d) for d, c in zip(divisors, culprits) if c is None])
        return f"{n},{b},{profile.order},{members}\n"
    # Every value is an int, which json writes as its repr, so these
    # f-strings are the bytes _json would make of the row, without a
    # PrimeCertificate, a dict or an encoder call per excluded divisor.
    # The text after d depends on p and nu_p(d) alone, so the row renders
    # it once per pair.
    members = []
    excluded = []
    tails = {}
    for d, culprit in zip(divisors, culprits):
        if culprit is None:
            members.append(str(d))
            continue
        p = culprit[0]
        nu_d = arith.valuation(p, d) if d % p == 0 else 0
        tail = tails.get((p, nu_d))
        if tail is None:
            tail = tails[p, nu_d] = (
                f',"certificate":{{"p":{p},"nu_n":{culprit[1]},"nu_d":{nu_d}}}}}'
            )
        excluded.append(f'{{"d":{d}{tail}')
    return (
        f'{{"n":{n},"base":{b},"order":{profile.order},'
        f'"midy_set":[{",".join(members)}],"excluded":[{",".join(excluded)}]}}\n'
    )


# Most orders mod primes a scan's table holds before a row; a full table
# is cleared.  The pop rule alone leaves about pi(end / 3) at a base-10
# scan's middle row: 28,664 at most to 10**6, 78,497 to 3 * 10**6.
_SCAN_ORDER_LIMIT = 1 << 16


def _scan_rows(b: int, lo: int, end: int, fmt: str, orders: dict):
    """Decide the rows of n coprime to b in the chunk from lo to
    min(lo + SCAN_CHUNK_ROWS, end), and yield the line of each as fmt
    renders it.  orders is the process's table of orders mod primes.  A
    row drops its largest prime p from it when p divides no later row
    below end: the next would be m * p after p, m the least integer above
    1 coprime to b, and n + p or later after n."""
    m = next(m for m in range(2, b + 2) if math.gcd(m, b) == 1)
    # _scan_row is looked up at call time, so a rebinding sees every row.
    for n, factors in arith._factor_lists(lo, min(lo + SCAN_CHUNK_ROWS, end), b):
        if len(orders) >= _SCAN_ORDER_LIMIT:
            orders.clear()
        yield _scan_row(b, n, Factorization(factors), fmt, orders)
        if factors:
            p = factors[-1][0]
            if (m * p if n == p else n + p) >= end:
                orders.pop(p, None)


# A scan worker sends each chunk as one frame on its own pipe: the
# payload's length in decimal and a newline, then the chunk's rows in
# ASCII.  The worker writes the rows of its chunk one by one after the
# header, and the parent passes the payload on to out as text in blocks
# of at most FRAME_BLOCK bytes as they arrive; ASCII decodes block by
# block.  A worker that stops, by an error or a signal, sends no more
# frames, and the parent renders each chunk that did not come whole,
# writing only the text past the bytes it copied.  An error is then
# raised in process after every chunk before it, as --jobs 1 does.
FRAME_BLOCK = 1 << 16


def _write_frame(pipe, rows: list[bytes]) -> None:
    pipe.write(b"%d\n" % sum(map(len, rows)))
    pipe.writelines(rows)
    pipe.flush()


def _copy_frame(pipe, write) -> tuple[bool, int]:
    """Pass the payload of the next frame on pipe to write in blocks of at
    most FRAME_BLOCK bytes.  Returns whether the whole frame came, and
    how many payload bytes were passed on: (False, 0) if no header came,
    (True, 0) for a chunk with no row."""
    header = pipe.readline()
    if not header.endswith(b"\n"):
        return False, 0
    size, copied = int(header), 0
    while copied < size:
        block = pipe.read(min(size - copied, FRAME_BLOCK))
        if not block:
            break
        write(block)
        copied += len(block)
    return copied == size, copied


def _forked_scan(b: int, starts: range, hi: int, fmt: str, workers: int, out) -> None:
    """Write the chunks' text to out in order, worker w rendering chunks
    w, w + workers, ... with its own order table.  A worker blocks once
    its pipe is full, so the text in memory stays bounded whatever the
    range or the reader: each worker holds the rows of the chunk it is
    on, and the parent one block of a frame."""

    def write(block: bytes) -> None:
        out.write(block.decode())

    # The text written so far (the CSV header) goes ahead of the frames,
    # and out of the buffer each worker inherits.
    out.flush()
    parent = os.getpid()
    pids = []
    readers = []
    try:
        for w in range(workers):
            r, fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The child never returns and prints nothing, whatever
                # ends it: it must not run the parent's handlers, nor
                # flush the stdout buffer it inherited.
                try:
                    os.close(r)
                    for reader in readers:
                        reader.close()
                    orders = {}
                    with open(fd, "wb") as pipe:
                        for lo in starts[w::workers]:
                            rows = []
                            for row in _scan_rows(b, lo, hi, fmt, orders):
                                # A worker whose parent died is adopted by
                                # another process: it stops within a row,
                                # not at its next frame.
                                if os.getppid() != parent:
                                    os._exit(0)
                                rows.append(row.encode())
                            _write_frame(pipe, rows)
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(fd)
            readers.append(open(r, "rb"))
        orders = {}
        for i, lo in enumerate(starts):
            whole, copied = _copy_frame(readers[i % workers], write)
            if not whole:
                # The chunk is rendered whole before a byte of it is
                # written, so a row that raises leaves out as --jobs 1 does.
                out.write("".join(_scan_rows(b, lo, hi, fmt, orders))[copied:])
            # A terminal shows the chunk's last rows now, not once the
            # next chunk's text pushes them out.
            out.flush()
    finally:
        # A worker still rendering meets a closed pipe at its next frame.
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _cmd_scan(args, out) -> int:
    if args.start < 1 or args.stop < args.start:
        raise MidylabError(f"bad scan range [{args.start}, {args.stop}]")
    hi = args.stop + 1
    starts = range(args.start, hi, SCAN_CHUNK_ROWS)
    if args.format == "csv":
        out.write("n,base,order,midy_set\n")
    # Never start more workers than there are chunks or CPUs; with one
    # worker, or where os.fork does not exist, the scan runs in process.
    # The chunks are counted up to --jobs only: len(starts) overflows
    # on a range of more than sys.maxsize chunks.
    workers = min(len(starts[: args.jobs]), os.cpu_count() or 1)
    if workers > 1 and hasattr(os, "fork"):
        _forked_scan(args.base, starts, hi, args.format, workers, out)
    else:
        orders = {}
        for lo in starts:
            out.write("".join(_scan_rows(args.base, lo, hi, args.format, orders)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _base_arg(text: str) -> int:
    value = int(text)
    if not 2 <= value <= 62:
        raise argparse.ArgumentTypeError("base must be between 2 and 62")
    return value


def _jobs_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1")
    return value


def _prime_power_arg(text: str) -> tuple[int, int]:
    p_text, sep, h_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected P:H")
    try:
        return int(p_text), int(h_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected P:H with integers") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midylab",
        description="Block-sum periodicity of radix expansions: "
        "deciders, scans, and prime progressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("human", "json"), default="human"):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("order", help="multiplicative order of the base mod N")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("expand", help="period digits of X/N, optionally in blocks")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("x", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--blocks", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("midy-check", help="decide the property for N and d")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument(
        "--method", choices=["ppl2", "ppl3", "direct", "all"], default="ppl2"
    )
    add_format(p)
    p.set_defaults(func=_cmd_midy_check)

    p = sub.add_parser("midy-set", help="all block counts with the property")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_midy_set)

    p = sub.add_parser("jenkins", help="product criterion over prime powers")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--prime",
        type=_prime_power_arg,
        action="append",
        required=True,
        metavar="P:H",
    )
    p.add_argument("--route", choices=["formula", "gcd", "both"], default="both")
    add_format(p)
    p.set_defaults(func=_cmd_jenkins)

    p = sub.add_parser("primes", help="progression of primes 1 mod q^v")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--bound", type=int, default=progression.DEFAULT_SEARCH_BOUND)
    add_format(p)
    p.set_defaults(func=_cmd_primes)

    p = sub.add_parser("scan", help="per-N order and property set over a range")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--jobs", type=_jobs_arg, default=1)
    add_format(p, choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except BrokenPipeError:
        # The reader went away (scan | head).  Point stdout at devnull so
        # the interpreter's last flush has nowhere to fail; the scan's
        # workers were reaped on the way out of _cmd_scan.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_DOMAIN
    except BoundedSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except MidylabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
