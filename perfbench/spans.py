"""Per-layer tracing from outside the program.

The tracer replaces each public layer function with a wrapper in every
monodyn module that holds a reference to it, because callers look names
up where they imported them (graph_engine, for one, imports
element_orders, mul and power by name).  A span wrapper records
(round, op, id, parent, name, start, end, self time, counters) in
memory; spans are written as JSON lines when the run ends.  The memory
a layer allocates is measured apart from its time, by AllocPeaks.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

import monodyn


#: (module, function, wrapper kind, counters taken from the result,
#: whether to count lru_cache hits).  A "span" is recorded one by one; a
#: "timed" call only adds to its layer's time and call count, for cached
#: functions called a hundred thousand times a pass; a "count" call only
#: counts, for scalar field arithmetic called millions of times.
LAYERS = (
    ("cli", "main", "span", None, False),
    ("finite_field", "make_field", "span", None, False),
    ("finite_field", "element_orders", "span", None, True),
    ("finite_field", "mul", "count", None, False),
    ("finite_field", "power", "count", None, False),
    ("graph_engine", "successor_array", "span", lambda r: {"nodes": len(r)}, False),
    ("graph_engine", "build", "span", lambda r: {"nodes": r.q, "cycles": len(r.cycles)}, False),
    ("graph_engine", "check_order_characterization", "span", None, False),
    ("graph_engine", "dichotomy_report", "span", None, False),
    ("graph_engine", "orbit_document", "span", None, False),
    ("graph_engine", "export_dot", "span", None, False),
    ("reporting", "render_json", "span", lambda r: {"bytes": len(r)}, False),
    ("numtheory", "primes_up_to", "span", lambda r: {"primes": len(r)}, False),
    ("numtheory", "factorize", "timed", None, False),
    ("numtheory", "multiplicative_order", "timed", None, False),
    ("monomial", "profile", "span", None, False),
    ("mean_values", "analytic_N", "span", None, False),
    ("mean_values", "dirichlet_D", "span", None, False),
    ("mean_values", "empirical_mean", "span", lambda r: {"primes": r.checkpoints[-1].prime_count}, False),
    ("function_field", "oscillation_experiment", "span", lambda r: {"points": len(r.series)}, False),
    ("function_field", "dirichlet_D_K", "span", None, False),
)

#: Layers whose own allocation peak is reported as <name>.alloc_peak_mb.
MEMORY_LAYERS = (("reporting", "render_json"),)

#: Per-layer metrics reported by a traced run: (name, unit).  Every
#: wrapped function also reports <name>.errors.
LAYER_METRICS = (
    ("finite_field.make_field.s", "s"),
    ("finite_field.element_orders.s", "s"),
    ("finite_field.element_orders.hit_ratio", "ratio"),
    ("finite_field.mul.calls", "count"),
    ("finite_field.power.calls", "count"),
    ("graph_engine.successor_array.s", "s"),
    ("graph_engine.successor_array.nodes", "count"),
    ("graph_engine.build.self_s", "s"),
    ("graph_engine.build.nodes", "count"),
    ("graph_engine.build.cycles", "count"),
    ("graph_engine.check_order_characterization.self_s", "s"),
    ("graph_engine.dichotomy_report.self_s", "s"),
    ("graph_engine.orbit_document.s", "s"),
    ("graph_engine.export_dot.s", "s"),
    ("reporting.render_json.s", "s"),
    ("reporting.render_json.bytes", "bytes"),
    ("reporting.render_json.alloc_peak_mb", "MB"),
    ("numtheory.primes_up_to.s", "s"),
    ("numtheory.primes_up_to.primes", "count"),
    ("mean_values.empirical_mean.self_s", "s"),
    ("mean_values.empirical_mean.primes", "count"),
    ("numtheory.factorize.s", "s"),
    ("numtheory.factorize.calls", "count"),
    ("numtheory.multiplicative_order.s", "s"),
    ("monomial.profile.s", "s"),
    ("monomial.profile.calls", "count"),
    ("mean_values.analytic_N.s", "s"),
    ("mean_values.dirichlet_D.s", "s"),
    ("function_field.oscillation_experiment.s", "s"),
    ("function_field.oscillation_experiment.points", "count"),
    ("function_field.dirichlet_D_K.s", "s"),
    ("cli.main.s", "s"),
    ("cli.output.bytes", "bytes"),
) + tuple((f"{m}.{f}.errors", "count") for m, f, *_ in LAYERS)


def _program_modules():
    prefix = monodyn.__name__ + "."
    return [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m]


def _patch(mod_name: str, fn_name: str, make_wrapper, patches: list) -> None:
    """Replace a function in every monodyn module that holds a reference to it."""
    home = sys.modules[f"{monodyn.__name__}.{mod_name}"]
    orig = getattr(home, fn_name)
    wrapper = make_wrapper(orig)
    wrapper.__wrapped__ = orig
    for mod in _program_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
                patches.append((mod, attr, orig))


def _unpatch(patches: list) -> None:
    for mod, attr, orig in reversed(patches):
        setattr(mod, attr, orig)
    patches.clear()


class AllocPeaks:
    """The most memory one call of each memory layer allocates, in MB.

    tracemalloc starts when the call starts and stops when it returns, so
    the peak counts what the layer itself allocates and not the rest of
    the process's heap.  It slows every allocation it watches, so the
    benchmark runs it in a round of its own that is not timed.
    """

    def __init__(self):
        self.peaks = Counter()  # "<layer>.alloc_peak_mb" -> largest call
        self._patches = []

    def install(self):
        for mod_name, fn_name in MEMORY_LAYERS:
            key = f"{mod_name}.{fn_name}.alloc_peak_mb"
            _patch(mod_name, fn_name, lambda orig: self._wrapper(key, orig), self._patches)

    def uninstall(self):
        _unpatch(self._patches)

    def _wrapper(self, key, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks[key] = max(self.peaks[key], peak)

        return wrapper


class Tracer:
    """Spans and counts of the traced rounds of one run.

    Self time is kept as calls return: every open span or timed call
    holds an accumulator of its direct children's time, so a span's
    self time is its duration minus that accumulator.
    """

    def __init__(self):
        # (round, op, id, parent, name, start, end, self_s, counters):
        # tuples of plain values, which the garbage collector stops
        # tracking, so a long trace does not slow the program's own
        # collections
        self.spans = []
        self.tallies = defaultdict(Counter)  # round -> "<layer>.<qty>" -> value
        self.timed_self = Counter()  # (round, op) -> self time of its timed calls
        self.round = 0
        self.op = 0
        self._parents = []  # ids of the open spans
        self._child_time = []  # one accumulator per open span or timed call
        self._next_id = 0
        self._patches = []

    # -- installing and removing the wrappers -------------------------------

    def install(self):
        makers = {"span": self._span_wrapper, "timed": self._timed_wrapper,
                  "count": self._count_wrapper}
        for mod_name, fn_name, kind, counters, hits in LAYERS:
            make, name = makers[kind], f"{mod_name}.{fn_name}"
            _patch(mod_name, fn_name, lambda orig: make(name, orig, counters, hits),
                   self._patches)

    def uninstall(self):
        _unpatch(self._patches)

    def _count_wrapper(self, name, fn, counters, hits):
        calls, errors = f"{name}.calls", f"{name}.errors"

        def wrapper(*args, **kwargs):
            tally = self.tallies[self.round]
            tally[calls] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tally[errors] += 1
                raise

        return wrapper

    def _timed_wrapper(self, name, fn, counters, hits):
        keys = tuple(f"{name}.{q}" for q in ("calls", "s", "self_s", "errors"))

        def wrapper(*args, **kwargs):
            tally = self.tallies[self.round]
            stack = self._child_time
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tally[keys[3]] += 1
                raise
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                tally[keys[0]] += 1
                tally[keys[1]] += dur
                tally[keys[2]] += dur - child
                self.timed_self[self.round, self.op] += dur - child

        return wrapper

    def _span_wrapper(self, name, fn, counters, hits):
        def wrapper(*args, **kwargs):
            with self.span(name) as extra:
                h0 = fn.cache_info().hits if hits else 0
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.tallies[self.round][f"{name}.errors"] += 1
                    raise
                if counters:
                    extra.update(counters(result))
                if hits:
                    extra["hits"] = fn.cache_info().hits - h0
                return result

        return wrapper

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record one span; the body may fill the yielded counter dict."""
        sid = self._next_id
        self._next_id += 1
        parent = self._parents[-1] if self._parents else None
        self._parents.append(sid)
        self._child_time.append(0.0)
        counters = {}
        start = time.perf_counter()
        try:
            yield counters
        finally:
            end = time.perf_counter()
            self._parents.pop()
            child = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += end - start
            self.spans.append((self.round, self.op, sid, parent, name, start, end,
                               end - start - child, tuple(counters.items()) or None))

    def add(self, key: str, value: float):
        self.tallies[self.round][key] += value

    def write(self, path, t_origin: float):
        with open(path, "w") as fh:
            for rnd, op, sid, parent, name, start, end, self_s, counters in self.spans:
                rec = {"round": rnd, "op": op, "id": sid, "parent": parent, "name": name,
                       "start": start - t_origin, "end": end - t_origin, "self_s": self_s}
                if counters:
                    rec["counters"] = dict(counters)
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    # -- aggregation ---------------------------------------------------------

    def round_metrics(self, rnd: int) -> dict[str, float]:
        """Every layer quantity of one traced round, summed over its ops."""
        spans = [s for s in self.spans if s[0] == rnd]
        by_id = {s[2]: s for s in spans}
        out = Counter(self.tallies.get(rnd, {}))
        for _, _, sid, parent, name, start, end, self_s, counters in spans:
            if name == "op":
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            if not _has_ancestor(by_id, parent, name):
                out[f"{name}.s"] += end - start
            for k, v in counters or ():
                out[f"{name}.{k}"] += v
        calls = out["finite_field.element_orders.calls"]
        out["finite_field.element_orders.hit_ratio"] = (
            out["finite_field.element_orders.hits"] / calls if calls else 0.0
        )
        return out

    def layer_self_by_op(self) -> Counter:
        """(round, op) -> the sum of the self times of every layer call in it."""
        out = Counter(self.timed_self)
        for rnd, op, _, _, name, _, _, self_s, _ in self.spans:
            if name != "op":
                out[rnd, op] += self_s
        return out


def _has_ancestor(by_id, parent, name) -> bool:
    while parent is not None:
        rec = by_id[parent]
        if rec[4] == name:
            return True
        parent = rec[3]
    return False


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced rounds of each reported layer metric."""
    return {
        name: statistics.median(r.get(name, 0) for r in per_round)
        for name, _ in LAYER_METRICS
    }
