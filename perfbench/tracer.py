"""Span tracer that times calls into midylab's public functions from outside.

install() wraps each public function of the layer modules and rebinds
the wrapper under every name that points at the original, in every
midylab module.  That matters because midy, expansion, progression,
jenkins and cli do `from .order import order_mod`: patching
midylab.order alone would miss their calls.

Each call becomes a span with a parent link and the id of the row or
request it belongs to.  Self time is the span's duration minus the time
its child spans cover.  The hot names (hundreds of thousands of calls
in one scan) are aggregated per item into count, total and self time;
every other span is kept whole.  The cheap arithmetic leaves of
midylab.arith (gcd, pow_mod, valuation) are not wrapped, so their time
counts as self time of their caller.
"""

from __future__ import annotations

import sys
from time import perf_counter

LAYERS = ("arith", "order", "midy", "expansion", "jenkins", "progression", "cli")

UNWRAPPED = {"arith.gcd", "arith.pow_mod", "arith.valuation", "arith.is_prime_proven"}

# cli has no __all__.  main is its public entry point; _scan_row, when
# present, marks the start of each scan row, which gives rows their ids.
# The factor(n) call that precedes each _scan_row counts toward the row
# before it.
CLI_FUNCTIONS = ("main", "_scan_row")
ROW_MARKER = "cli._scan_row"

# The order layer's per-prime cache.  Its lookups are not spans; the probe
# only notes, per item, whether a prime's order was already computed for
# an earlier item, which tells a warm cache from reuse within one row.
PRIME_CACHE = "_order_mod_prime"

HOT = {
    "arith.factor",
    "arith.is_prime",
    "order.order_mod",
    "order.order_prime_power",
    "order.lift_valuation",
    "midy.midy_check_ppl2",
}


def _targets(package):
    for layer in LAYERS:
        module = sys.modules.get(f"{package.__name__}.{layer}")
        if module is None:
            continue
        names = getattr(module, "__all__", CLI_FUNCTIONS)
        for attr in names:
            fn = getattr(module, attr, None)
            name = f"{layer}.{attr}"
            if callable(fn) and not isinstance(fn, type) and name not in UNWRAPPED:
                yield name, fn


class Tracer:
    def __init__(self):
        self.item = None
        self.spans = []  # (id, parent id, item, name, start, end) for non-hot names
        self.per_item = {}  # item -> {hot name: [count, total_s, self_s]}
        self.totals = {}  # name -> [count, total_s, self_s]
        self.edges = {}  # (parent name, child name) -> count
        self.ppl2_holds = 0
        self.prime_repeats = 0
        self.cache_first_lookups = 0  # distinct keys per item
        self.cache_cross_hits = 0  # of those, keys an earlier item used
        self._primes_seen = set()
        self._keys_seen = set()
        self._item_keys = set()
        self._stack = []  # open frames: [span id, name, child time]
        self._next_id = 0

    def start_item(self, item) -> None:
        self.item = item
        self._primes_seen.clear()
        self._keys_seen |= self._item_keys
        self._item_keys.clear()

    def install(self, package) -> None:
        """Rebind every wrapped function in every loaded midylab module."""
        modules = [m for k, m in sys.modules.items() if k == package.__name__
                   or k.startswith(package.__name__ + ".")]
        wrappers = [(fn, self._wrap(name, fn)) for name, fn in _targets(package)]
        probe = getattr(sys.modules.get(package.__name__ + ".order"), PRIME_CACHE, None)
        if probe is not None:
            wrappers.append((probe, self._probe(probe)))
        for fn, wrapper in wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _probe(self, fn):
        def probed(*args):
            if args not in self._item_keys:
                self._item_keys.add(args)
                self.cache_first_lookups += 1
                if args in self._keys_seen:
                    self.cache_cross_hits += 1
            return fn(*args)

        probed.__wrapped__ = fn
        return probed

    def _wrap(self, name, fn):
        stack = self._stack
        is_prime = name == "arith.is_prime"
        is_ppl2 = name == "midy.midy_check_ppl2"
        is_row = name == ROW_MARKER

        def traced(*args, **kwargs):
            if is_row:
                self.start_item(args[1] if len(args) > 1 else None)
            elif is_prime:
                n = args[0]
                if n in self._primes_seen:
                    self.prime_repeats += 1
                else:
                    self._primes_seen.add(n)
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if is_ppl2 and result.holds:
                    self.ppl2_holds += 1
                return result
            finally:
                end = perf_counter()
                stack.pop()
                total = end - start
                if parent is not None:
                    parent[2] += total
                self._record(frame, parent, start, end, total)

        traced.__wrapped__ = fn
        return traced

    def _record(self, frame, parent, start, end, total):
        span_id, name, child = frame
        own = total - child
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += total
        agg[2] += own
        edge = (parent[1] if parent else None, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        if name in HOT:
            per = self.per_item.setdefault(self.item, {})
            agg = per.get(name)
            if agg is None:
                agg = per[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += total
            agg[2] += own
        else:
            self.spans.append(
                (span_id, parent[0] if parent else None, self.item, name, start, end)
            )

    def summary(self) -> dict:
        """JSON-ready totals, edge counts, kept spans and per-item aggregates."""
        return {
            "totals": {k: {"calls": c, "total_s": t, "self_s": s}
                       for k, (c, t, s) in sorted(self.totals.items())},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items(), key=str)],
            "ppl2_holds": self.ppl2_holds,
            "prime_repeats": self.prime_repeats,
            "cache_first_lookups": self.cache_first_lookups,
            "cache_cross_hits": self.cache_cross_hits,
            "spans": self.spans,
            "per_item": [[item, per] for item, per in self.per_item.items()],
        }
