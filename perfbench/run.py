"""Run one workload of the midylab benchmark and print its metrics.

    python3 perfbench/run.py --workload scan-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a midylab checkout; the program is imported from
its src/ directory.  Every pass of the workload runs in a fresh runner
process, so it starts with cold caches and pays the set-up a user of
the CLI pays.  With --trace 0 the passes repeat for --seconds seconds
and the end-to-end metrics are reported; with --trace 1 one untraced
pass is timed against one traced pass, and the per-layer metrics are
reported.  Times are rescaled to a reference speed measured by probes
in the runner (see _rescale); the raw ones are reported beside them.
Outputs are checked outside the timed region.  The report
goes to stdout, one metric a line, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  A fuller record,
including the trace's spans, is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
RUNNER = os.path.join(BENCH, "runner.py")

import check  # noqa: E402  (BENCH is sys.path[0])
import layers  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170  # the whole run, set-up and checks included
SETUP_SPAWNS = 5  # set-up-only runner starts per run, besides one per pass
SCAN_SAMPLE = {"scan-dense": 40, "scan-wide": 12}  # rows re-decided by other routes
PERCENTILES = (99, 95, 90, 75)
MIN_TAIL = 10  # samples that must lie beyond a reported percentile

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
PROBE_NOMINAL_S = 0.001  # the reference speed: runner.probe_loop() in 1 ms of CPU
MIN_PROBES = 5


class BenchError(Exception):
    pass


def load_midylab():
    if not os.path.isfile(os.path.join(SRC, "midylab", "__init__.py")):
        raise BenchError(f"no midylab package under {SRC}; run from a checkout's root")
    sys.path.insert(0, SRC)
    import midylab
    import midylab.cli  # noqa: F401

    if not os.path.abspath(midylab.__file__).startswith(SRC + os.sep):
        raise BenchError(f"midylab imported from {midylab.__file__}, not {SRC}")
    return midylab


class Session:
    """Starts runner processes for one run and keeps its deadline."""

    def __init__(self, tag: str):
        self.tag = tag
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        self.busy = 0.0  # seconds spent waiting for runners
        self.setups: list[float] = []
        self.raw_setups: list[float] = []

    def spawn(self, spec: dict) -> dict:
        self.count += 1
        base = os.path.join(OUT, f"{self.tag}.{self.count}")
        spec = dict(spec, src=SRC)
        with open(base + ".spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time limit")
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, RUNNER, base + ".spec.json", base + ".result.json", repr(spawned)],
            cwd=ROOT, start_new_session=True)
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the runner and any pool workers
            proc.wait()
            raise BenchError("runner exceeded the run's time limit") from None
        self.busy += time.monotonic() - spawned
        if code != 0:
            raise BenchError(f"runner exited with {code}")
        with open(base + ".result.json", encoding="utf-8") as fh:
            result = json.load(fh)
        for suffix in (".spec.json", ".result.json"):
            os.remove(base + suffix)
        if not os.path.abspath(result["src"]).startswith(SRC + os.sep):
            raise BenchError(f"runner imported midylab from {result['src']}")
        _rescale(result)
        self.setups.append(result["setup_s"])
        self.raw_setups.append(result["setup_raw_s"])
        return result

    def scan(self, argv: list[str], trace: bool = False) -> tuple[dict, str]:
        path = os.path.join(OUT, f"{self.tag}.scan.out")
        result = self.spawn({"mode": "scan", "argv": argv, "out": path, "trace": trace})
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        os.remove(path)
        if result["exit_code"] != 0:
            raise BenchError(f"scan {' '.join(argv)} exited with {result['exit_code']}")
        return result, text


def _speed(probe_cpu_s: list[float]) -> float:
    """Mean of PROBE_NOMINAL_S / c over the probes: with probes evenly
    spaced in time, each stretch of work is rescaled by the speed measured
    next to it.  A probe that was interrupted only lowers its own term."""
    return statistics.mean(PROBE_NOMINAL_S / c for c in probe_cpu_s)


def _rescale(result: dict) -> None:
    """Rescale a runner's times to reference speed, keeping the raw ones.

    A time becomes seconds on a machine where runner.probe_loop() takes
    PROBE_NOMINAL_S of CPU.  The operations use the probes taken while
    they ran; set-up, and passes too short for MIN_PROBES, the burst taken
    right after the imports."""
    burst = _speed(result["setup_probe_cpu_s"])
    result["setup_raw_s"] = result["setup_s"]
    result["setup_s"] *= burst
    if "wall_s" in result:
        during = result["probe_cpu_s"]
        speed = _speed(during) if len(during) >= MIN_PROBES else burst
        result["speed"] = speed
        result["wall_raw_s"] = result["wall_s"]
        result["wall_s"] *= speed
        if "latencies_s" in result:
            result["latencies_s"] = [t * speed for t in result["latencies_s"]]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rss_mb(result: dict) -> float:
    return (result["rss_kb"] + result["children_rss_kb"]) / 1024


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _tail_percentile(latencies: list[float]) -> tuple[str, float] | None:
    """Highest listed percentile with at least MIN_TAIL samples beyond it."""
    ordered = sorted(latencies)
    for pct in PERCENTILES:
        if len(ordered) * (100 - pct) / 100 >= MIN_TAIL:
            cut = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
            return f"req_p{pct}_ms", cut * 1000
    return None


# ---------------------------------------------------------------------------
# Untraced passes: end-to-end metrics
# ---------------------------------------------------------------------------


def run_scan(ml, session, workload, seed, seconds, report):
    inp = workloads.inputs(workload, seed)
    params, argv = inp["params"], inp["argv"]
    for _ in range(SETUP_SPAWNS):
        session.spawn({"mode": "setup"})
    walls, raw, speeds, rss, digests, failures = [], [], [], [], [], []
    start = session.busy
    while not walls or session.busy - start < seconds:
        result, text = session.scan(argv)
        walls.append(result["wall_s"])
        raw.append(result["wall_raw_s"])
        speeds.append(result["speed"])
        rss.append(_rss_mb(result))
        digests.append(_digest(text))
        if len(digests) == 1:
            failures = _scan_failures(ml, params, text, seed, workload)
        elif digests[-1] != digests[0]:
            failures.append((len(digests), "pass", f"pass {len(digests)} output differs", True))
    rows = len(check.expected_rows(params))
    wall = statistics.median(walls)
    report["metrics"].update({
        "wall_s": _metric(wall, "s", len(walls)),
        "wall_raw_s": _metric(statistics.median(raw), "s", len(raw)),
        "rows_per_s": _metric(rows / wall, "rows/s", len(walls)),
        "peak_rss_mb": _metric(statistics.median(rss), "MB", len(rss)),
    })
    report["passes"] = [{"wall_s": w, "wall_raw_s": r0, "speed": v, "peak_rss_mb": r}
                        for w, r0, v, r in zip(walls, raw, speeds, rss)]
    report["digest"] = digests[0]
    return rows * len(walls), failures


def run_requests(ml, session, workload, seed, seconds, report):
    for _ in range(SETUP_SPAWNS):
        session.spawn({"mode": "setup"})
    walls, raw, speeds, rss, latencies, failures = [], [], [], [], [], []
    attempted = 0
    start = session.busy
    while not walls or session.busy - start < seconds:
        # Every pass gets its own draw (queries) or order (progression).
        pass_seed = seed * 1000 + len(walls)
        requests = workloads.inputs(workload, pass_seed)["requests"]
        result = session.spawn({"mode": "requests", "requests": _plain_requests(requests)})
        walls.append(result["wall_s"])
        raw.append(result["wall_raw_s"])
        speeds.append(result["speed"])
        rss.append(_rss_mb(result))
        latencies += result["latencies_s"]
        failures += _request_failures(ml, requests, result, pass_seed)
        attempted += len(requests)
    m = report["metrics"]
    m["wall_s"] = _metric(statistics.median(walls), "s", len(walls))
    m["wall_raw_s"] = _metric(statistics.median(raw), "s", len(raw))
    m["req_per_s"] = _metric(attempted / sum(walls), "req/s", attempted)
    m["req_p50_ms"] = _metric(statistics.median(latencies) * 1000, "ms", len(latencies))
    tail = _tail_percentile(latencies)
    if tail:
        m[tail[0]] = _metric(tail[1], "ms", len(latencies))
    m["peak_rss_mb"] = _metric(statistics.median(rss), "MB", len(rss))
    report["passes"] = [{"wall_s": w, "wall_raw_s": r0, "speed": v, "peak_rss_mb": r}
                        for w, r0, v, r in zip(walls, raw, speeds, rss)]
    return attempted, failures


def _plain_requests(requests):
    return [{k: v for k, v in r.items() if k != "expect"} for r in requests]


# A failure is (key, input, problem, wrong): wrong outputs make a run
# incorrect; requests that raised only count as failed.


def _scan_failures(ml, params, text, seed, workload):
    return [(n, f"n={n}", p, True) for n, p in
            check.check_scan(ml, params, text, seed, SCAN_SAMPLE[workload])]


def _request_failures(ml, requests, result, pass_seed):
    def describe(i):
        return " ".join(f"{k}={v}" for k, v in requests[i].items() if k != "expect")

    raised = [(i, f"{kind}: {msg}", False) for i, kind, msg in result["errors"]]
    wrong = [(i, msg, True) for i, msg in
             check.check_requests(ml, requests, result["outputs"], pass_seed)]
    return [((pass_seed, i), describe(i), msg, w) for i, msg, w in raised + wrong]


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def trace_scan(ml, session, workload, seed, report):
    params = workloads.inputs(workload, seed)["params"]
    serial = dict(params, jobs=1)
    pooled = params["jobs"] > 1
    timed = []
    if pooled:
        timed.append(("pooled", *session.scan(workloads.scan_argv(params))))
    timed.append(("serial", *session.scan(workloads.scan_argv(serial))))
    traced, traced_text = session.scan(workloads.scan_argv(serial), trace=True)
    serial_result, serial_text = timed[-1][1:]
    failures = _scan_failures(ml, params, serial_text, seed, workload)
    digest = _digest(traced_text)
    for label, _, out in timed:
        if _digest(out) != digest:
            failures.append((label, label, "output differs from the traced jobs-1 output", True))
    rows = len(check.expected_rows(params))
    serial_wall = serial_result["wall_s"]
    metrics = layers.layer_metrics(traced, rows, untraced_wall=serial_result["wall_raw_s"])
    metrics["cli.out_bytes"] = len(traced_text)
    if pooled:
        pool_wall = timed[0][1]["wall_s"]
        jobs = params["jobs"]
        metrics["cli.pool.efficiency"] = serial_wall / (jobs * pool_wall)
        metrics["cli.pool.overhead_s"] = pool_wall - serial_wall / jobs
    report["digest"] = digest
    return metrics, traced, rows * (len(timed) + 1), failures


def trace_requests(ml, session, workload, seed, report):
    pass_seed = seed * 1000
    requests = workloads.inputs(workload, pass_seed)["requests"]
    plain = _plain_requests(requests)
    untraced = session.spawn({"mode": "requests", "requests": plain})
    traced = session.spawn({"mode": "requests", "requests": plain, "trace": True})
    failures = _request_failures(ml, requests, untraced, pass_seed)
    failures += [(("traced", key), *rest)
                 for key, *rest in _request_failures(ml, requests, traced, pass_seed)]
    if untraced["outputs"] != traced["outputs"]:
        failures.append(("trace", "trace", "traced answers differ from untraced answers", True))
    metrics = layers.layer_metrics(traced, len(requests),
                                   untraced_wall=untraced["wall_raw_s"])
    metrics["cli.out_bytes"] = 0
    if workload == "progression":
        metrics.update(layers.progression_metrics(ml, traced))
    return metrics, traced, 2 * len(requests), failures


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "midylab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def meta(args, params) -> dict:
    return {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "layer_map": workloads.LAYER_MAP,
    }


def _params(workload: str) -> dict:
    if workload in workloads.SCANS:
        return workloads.SCANS[workload]
    if workload == "queries":
        return {"mix": workloads.QUERY_MIX, "midy_set_divisors": workloads.MIDY_SET_DIVISORS,
                "semiprime_bits": workloads.SEMIPRIME_BITS,
                "bases": [2, 62], "clients": 1, "loop": "closed"}
    return {"bases": workloads.PROGRESSION_BASES, "q": workloads.Q_CHOICES,
            "qv_max": workloads.QV_MAX, "count": workloads.PROGRESSION_COUNT,
            "clients": 1, "loop": "closed"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(main(["--workload", w, "--seed", str(args.seed), "--seconds",
                         str(args.seconds), "--trace", str(args.trace)])
                   for w in workloads.WHY)
    sys.set_int_max_str_digits(0)  # the runners' answers hold very long ints

    try:
        ml = load_midylab()
        import selftest

        try:
            selftest.run(ml)
        except selftest.SelfTestError as exc:
            raise BenchError(f"selftest: {exc}") from None
        os.makedirs(OUT, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        session = Session(tag)
        report = {"meta": meta(args, _params(args.workload)), "metrics": {}}
        scan = args.workload in workloads.SCANS
        if args.trace:
            fn = trace_scan if scan else trace_requests
            layer, traced, attempted, failures = fn(ml, session, args.workload, args.seed, report)
            report["layers"] = layer
            with open(os.path.join(OUT, tag + ".trace.json"), "w", encoding="utf-8") as fh:
                json.dump(traced["trace"], fh)
            chosen = {k: {"value": layer[k], "unit": layers.UNITS[k]} for k in layers.REPORTED}
        else:
            fn = run_scan if scan else run_requests
            attempted, failures = fn(ml, session, args.workload, args.seed, args.seconds, report)
            report["metrics"]["setup_s"] = _metric(
                statistics.median(session.setups), "s", len(session.setups))
            report["metrics"]["setup_raw_s"] = _metric(
                statistics.median(session.raw_setups), "s", len(session.raw_setups))
            chosen = {k: {"value": report["metrics"][k]["value"],
                          "unit": report["metrics"][k]["unit"]} for k in END_TO_END}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    correct = not any(wrong for *_, wrong in failures)
    failed = min(len({key for key, *_ in failures}), attempted)
    report["metrics"]["failed_frac"] = _metric(failed / attempted, "ratio", attempted)
    report["failures"] = [[desc, msg] for _, desc, msg, _ in failures]
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"# {args.workload}: {workloads.WHY[args.workload]}")
    print(f"# seed {args.seed}, python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"git {report['meta']['git_sha'] or 'unknown'}")
    for name, m in report["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (samples {m['samples']})")
    for name, value in report.get("layers", {}).items():
        print(f"{args.workload} {name} = {value:.6g} {layers.UNITS[name]}")
    for (desc, msg), times in collections.Counter(map(tuple, report["failures"])).items():
        print(f"{args.workload} FAILED {desc}: {msg} (x{times})")
    print(f"# record: {os.path.relpath(os.path.join(OUT, tag + '.json'), ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
