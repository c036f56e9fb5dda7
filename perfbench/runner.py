"""Timed runner: one fresh process per pass of a workload.

Usage: runner.py SPEC.json RESULT.json SPAWN_TIME

SPEC names the midylab source directory and either a `scan` command
line, whose stdout goes to a file, or a list of requests served in a
closed loop by one client.  SPAWN_TIME is the parent's time.monotonic()
just before it started this process; on Linux that clock is shared by
all processes, so the difference to the moment the imports are done is
the set-up time.  Only inputs reach this process: nothing here makes
inputs or checks outputs, so the caches of midylab start cold.

The host's speed drifts by tens of percent over seconds to minutes, so
the runner measures it alongside the work: a fixed probe loop runs in a
burst right after the imports, and from a SIGALRM timer every
PROBE_EVERY_S seconds while the operations run.  run.py rescales the
times by the probes' CPU time; the probes' own wall time is taken out of
the operations' wall time here.
"""

import json
import resource
import signal
import sys
import time

PROBE_EVERY_S = 0.05
PROBE_BURST = 25  # probes right after the imports, for the set-up time


def probe_loop():
    """Fixed work: interpreted integer arithmetic and modular powers."""
    s = 0
    for i in range(300):
        s ^= pow(i | 3, 1000003, 1000000000039) + i * i % 7
    return s


class Probe:
    """Times probe_loop() from a SIGALRM handler while the operations run.

    The handler runs in the main thread between bytecodes, also while it
    waits for pool workers; the timer is not inherited by forked workers.
    A traced pass runs no timer (every_s 0), so that no probe time lands
    in a span's self time; run.py then rescales it by the burst."""

    def __init__(self, every_s: float = 0.0):
        self.every_s = every_s
        self.cpu_s: list[float] = []
        self.wall_s = 0.0

    def once(self, *_):
        w0, c0 = time.perf_counter(), time.thread_time()
        probe_loop()
        self.cpu_s.append(time.thread_time() - c0)
        self.wall_s += time.perf_counter() - w0

    def __enter__(self):
        if self.every_s:
            signal.signal(signal.SIGALRM, self.once)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _load(spec):
    sys.path.insert(0, spec["src"])
    import midylab
    import midylab.cli

    return midylab


def _scan(ml, spec, result, probe):
    out = open(spec["out"], "w", encoding="ascii")
    saved = sys.stdout
    sys.stdout = out
    try:
        with probe:
            start = time.perf_counter()
            code = ml.cli.main(spec["argv"])
            out.flush()
            wall = time.perf_counter() - start
        result["wall_s"] = wall - probe.wall_s
        result["probe_cpu_s"] = probe.cpu_s
    finally:
        sys.stdout = saved
        out.close()
    result["exit_code"] = code


def _serve(ml, req):
    op, b = req["op"], req["b"]
    if op == "order_mod":
        return ml.order_mod(b, req["N"])
    if op == "midy_set":
        return ml.midy_set(b, req["N"])
    if op == "ppl2":
        return ml.midy_check_ppl2(b, req["N"], req["d"])
    if op == "cross":
        N, d = req["N"], req["d"]
        return (ml.midy_check_ppl2(b, N, d), ml.midy_check_ppl3(b, N, d),
                ml.midy_check_direct(b, N, d))
    if op == "period":
        e = ml.period_digits(req["x"], req["N"], b)
        return e, ml.blocks_and_sum(e, req["d"])
    if op == "jenkins":
        inst = ml.jenkins_instance(b, req["d"], req["pp"])
        return ml.jenkins_check(inst), ml.jenkins_check_gcd(inst)
    if op == "progression":
        return ml.prime_progression(b, req["q"], req["v"], req["count"])
    raise ValueError(f"unknown op {op!r}")


def _plain(op, value):
    """JSON form of a request's answer, made after the timed loop."""
    if op == "order_mod":
        return value
    if op == "midy_set":
        return [value.order, list(value.members)]
    if op == "ppl2":
        return value.holds
    if op == "cross":
        return [v.holds for v in value]
    if op == "period":
        e, blocks = value
        return [list(e.digits), list(blocks.blocks), blocks.block_sum]
    if op == "jenkins":
        return list(value)
    if op == "progression":
        return [list(step) for step in value.steps]
    raise ValueError(f"unknown op {op!r}")


def _requests(ml, spec, result, tracer, probe):
    requests = spec["requests"]
    answers, latencies, errors = [], [], []
    clock = time.perf_counter
    with probe:
        start = clock()
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.start_item(i)
            t0 = clock()
            probed = probe.wall_s
            try:
                answers.append(_serve(ml, req))
            except Exception as exc:  # counted and listed by input, never fatal
                answers.append(None)
                errors.append([i, type(exc).__name__, str(exc)[:200]])
            latencies.append(clock() - t0 - (probe.wall_s - probed))
        wall = clock() - start
    result["wall_s"] = wall - probe.wall_s
    result["probe_cpu_s"] = probe.cpu_s
    failed = {i for i, _, _ in errors}
    result["outputs"] = [None if i in failed else _plain(req["op"], a)
                         for i, (req, a) in enumerate(zip(requests, answers))]
    result["latencies_s"] = latencies
    result["errors"] = errors


def _order_caches(ml):
    # The order layer's lru caches, taken before the tracer rebinds names.
    # A cache a later version drops counts as never used.
    return {key: getattr(ml.order, name, None)
            for key, name in (("prime_cache", "_order_mod_prime"),
                              ("lift_cache", "lift_valuation"))}


def _cache_counts(caches):
    counts = {}
    for key, fn in caches.items():
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        counts[key] = [info.hits, info.misses] if info else [0, 0]
    return counts


def _peak_rss_kb() -> int:
    # Not getrusage: across exec its ru_maxrss keeps the parent's peak,
    # while VmHWM belongs to this process's own address space.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path, result_path, spawn_time):
    sys.set_int_max_str_digits(0)  # block values of long periods run to many digits
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    ml = _load(spec)
    ready = time.monotonic()
    result = {"setup_s": ready - float(spawn_time), "src": ml.__file__}
    burst = Probe()
    for _ in range(PROBE_BURST):
        burst.once()
    result["setup_probe_cpu_s"] = burst.cpu_s
    caches = _order_caches(ml)
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer  # this file's directory is sys.path[0]

        tracer = Tracer()
        tracer.install(ml)
    probe = Probe(PROBE_EVERY_S if tracer is None else 0.0)
    before = _cache_counts(caches)
    if spec["mode"] == "scan":
        _scan(ml, spec, result, probe)
    elif spec["mode"] == "requests":
        _requests(ml, spec, result, tracer, probe)
    after = _cache_counts(caches)
    result["cache"] = {k: [a - b for a, b in zip(after[k], before[k])] for k in after}
    result["rss_kb"] = _peak_rss_kb()
    result["children_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
