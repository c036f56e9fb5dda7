"""Per-layer metrics from a traced pass.

The layers are midylab's modules.  A span name is `module.function`;
self time is the span's time minus that of its child spans, so the
self times of all spans add up to the traced wall time less the time
spent outside any wrapped function.
"""

from __future__ import annotations

UNITS = {
    "arith.factor.calls": "count",
    "arith.factor.self_s": "s",
    "arith.is_prime.calls": "count",
    "arith.is_prime.self_s": "s",
    "arith.is_prime.repeat_ratio": "ratio",
    "order.order_mod.calls": "count",
    "order.order_mod.self_s": "s",
    "order.order_mod.per_item": "calls/item",
    "order.order_prime_power.calls": "count",
    "order.order_prime_power.self_s": "s",
    "order.prime_cache.hit_ratio": "ratio",
    "order.lift_cache.hit_ratio": "ratio",
    "order.prime_cache.cross_item_hit_ratio": "ratio",
    "midy.ppl2.calls": "count",
    "midy.ppl2.self_s": "s",
    "midy.ppl2.holds_ratio": "ratio",
    "midy.midy_set.calls": "count",
    "midy.midy_set.self_s": "s",
    "midy.ppl3.calls": "count",
    "midy.ppl3.self_s": "s",
    "expansion.oracle.calls": "count",
    "expansion.oracle.self_s": "s",
    "expansion.period_digits.self_s": "s",
    "jenkins.calls": "count",
    "jenkins.self_s": "s",
    "progression.witness.self_s": "s",
    "progression.witness.candidates": "count",
    "progression.candidates_per_prime": "candidates/prime",
    "progression.unproven_primes": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "cli.pool.efficiency": "ratio",
    "cli.pool.overhead_s": "s",
    "tracing_overhead": "ratio",
}

# The metrics in the benchmark's final JSON line: those that every workload
# has.  Self times of layers that a workload never enters would read 0 on
# every run, so those are left to the report and the record.
REPORTED = (
    "arith.factor.calls", "arith.factor.self_s",
    "arith.is_prime.calls", "arith.is_prime.self_s", "arith.is_prime.repeat_ratio",
    "order.order_mod.calls", "order.order_mod.self_s", "order.order_mod.per_item",
    "order.order_prime_power.calls", "order.order_prime_power.self_s",
    "order.prime_cache.hit_ratio", "order.lift_cache.hit_ratio",
    "order.prime_cache.cross_item_hit_ratio",
    "midy.ppl2.calls", "midy.ppl2.self_s", "midy.ppl2.holds_ratio",
    "midy.midy_set.calls", "midy.ppl3.calls", "expansion.oracle.calls", "jenkins.calls",
    "progression.witness.candidates", "progression.unproven_primes",
    "cli.out_bytes", "tracing_overhead",
)

WITNESS = "progression.smallest_midy_witness"
ORACLE = ("midy.midy_check_direct", "expansion.smallest_failing_x", "expansion.midy_direct")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(traced: dict, items: int, untraced_wall: float) -> dict:
    trace = traced["trace"]
    totals = trace["totals"]
    edges = {(p, c): n for p, c, n in trace["edges"]}

    def calls(*names):
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    def own(*names):
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def prefixed(prefix):
        return [n for n in totals if n.startswith(prefix)]

    def hit_ratio(key):
        hits, misses = traced["cache"][key]
        return _ratio(hits, hits + misses)

    return {
        "arith.factor.calls": calls("arith.factor"),
        "arith.factor.self_s": own("arith.factor"),
        "arith.is_prime.calls": calls("arith.is_prime"),
        "arith.is_prime.self_s": own("arith.is_prime"),
        "arith.is_prime.repeat_ratio": _ratio(trace["prime_repeats"], calls("arith.is_prime")),
        "order.order_mod.calls": calls("order.order_mod"),
        "order.order_mod.self_s": own("order.order_mod"),
        "order.order_mod.per_item": _ratio(calls("order.order_mod"), items),
        "order.order_prime_power.calls": calls("order.order_prime_power"),
        "order.order_prime_power.self_s": own("order.order_prime_power"),
        "order.prime_cache.hit_ratio": hit_ratio("prime_cache"),
        "order.lift_cache.hit_ratio": hit_ratio("lift_cache"),
        # Share of each item's distinct prime-cache keys an earlier item
        # already used: the warmth the items share, without the repeats
        # inside one item that dominate hit_ratio.
        "order.prime_cache.cross_item_hit_ratio": _ratio(trace["cache_cross_hits"],
                                                         trace["cache_first_lookups"]),
        "midy.ppl2.calls": calls("midy.midy_check_ppl2"),
        "midy.ppl2.self_s": own("midy.midy_check_ppl2"),
        "midy.ppl2.holds_ratio": _ratio(trace["ppl2_holds"], calls("midy.midy_check_ppl2")),
        "midy.midy_set.calls": calls("midy.midy_set"),
        "midy.midy_set.self_s": own("midy.midy_set"),
        "midy.ppl3.calls": calls("midy.midy_check_ppl3"),
        "midy.ppl3.self_s": own("midy.midy_check_ppl3"),
        "expansion.oracle.calls": calls(*ORACLE[1:]),
        "expansion.oracle.self_s": own(*ORACLE),
        "expansion.period_digits.self_s": own("expansion.period_digits"),
        "jenkins.calls": calls(*prefixed("jenkins.")),
        "jenkins.self_s": own(*prefixed("jenkins.")),
        "progression.witness.self_s": own(WITNESS),
        # One order_mod per candidate N the witness scan does not skip.
        "progression.witness.candidates": edges.get((WITNESS, "order.order_mod"), 0),
        "progression.unproven_primes": 0,
        "cli.self_s": own(*prefixed("cli.")),
        # Raw times: the traced pass has no probes running alongside it
        # (see runner.Probe), so its rescaled time would rest on the burst.
        "tracing_overhead": traced["wall_raw_s"] / untraced_wall,
    }


def progression_metrics(ml, traced: dict) -> dict:
    """Counts read from the progression answers of a traced pass."""
    trace = traced["trace"]
    edges = {(p, c): n for p, c, n in trace["edges"]}
    primes = [p for steps in traced["outputs"] if steps for _, p in steps]
    # Candidates: the witness scan's order_mod calls, plus one is_prime per
    # coprime P = j * modulus + 1 that the later steps try.
    candidates = (edges.get((WITNESS, "order.order_mod"), 0)
                  + edges.get(("progression.prime_progression", "arith.is_prime"), 0))
    return {
        "progression.candidates_per_prime": _ratio(candidates, len(primes)),
        "progression.unproven_primes": sum(1 for p in primes if not ml.is_prime_proven(p)),
    }
