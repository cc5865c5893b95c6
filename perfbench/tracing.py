"""Span tracing around the calls into isingcloak's public functions.

The tracer replaces public names in the namespaces of the modules that
call them (``cli.brute_force``, ``qaoa.energy_table``,
``scheme2.decrypt1``, ...) with wrappers that record a span per call:
name, start, end, parent span and the id of the pipeline it belongs
to.  Nothing under ``src/`` is changed; ``uninstall`` restores the
original functions.

Functions called once per outcome or per draw (``LEAF`` below) would
produce 10^4 spans per pipeline, so their calls are aggregated per
(parent span, name) into a count and a total time instead.  They have
no children, so self times stay exact.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module whose namespace is patched, attribute, span name)
HOOKS = (
    ("cli", "generate", "benchmarks.generate"),
    ("cli", "distribution_from_dict", "core.distribution_from_dict"),
    ("cli", "distribution_to_dict", "core.distribution_to_dict"),
    ("cli", "gen_key1", "scheme1.gen_key1"),
    ("cli", "encrypt1", "scheme1.encrypt1"),
    ("cli", "decrypt1", "scheme1.decrypt1"),
    ("cli", "encrypt2", "scheme2.encrypt2"),
    ("cli", "decrypt2", "scheme2.decrypt2"),
    ("cli", "encrypt3", "scheme3.encrypt3"),
    ("cli", "decrypt3", "scheme3.decrypt3"),
    ("cli", "brute_force", "oracle.brute_force"),
    ("cli", "argmin_distribution", "oracle.argmin_distribution"),
    ("cli", "ar", "oracle.ar"),
    ("cli", "rar", "oracle.rar"),
    ("cli", "optimize", "qaoa.optimize"),
    ("cli", "simulate", "qaoa.simulate"),
    ("cli", "sample", "qaoa.sample"),
    ("oracle", "energy_table", "oracle.energy_table"),
    ("oracle", "eval_ising", "core.eval_ising"),
    ("qaoa", "energy_table", "oracle.energy_table"),
    ("scheme2", "ising_to_qubo", "core.ising_to_qubo"),
    ("scheme2", "qubo_to_ising", "core.qubo_to_ising"),
    ("scheme2", "build_roulette", "scheme2.build_roulette"),
    ("scheme2", "sample_weight", "scheme2.sample_weight"),
    ("scheme2", "embed_decoys", "scheme2.embed_decoys"),
    ("scheme2", "apply_permutation", "scheme2.apply_permutation"),
    ("scheme2", "permute_bits", "scheme2.permute_bits"),
    ("scheme2", "gen_key1", "scheme1.gen_key1"),
    ("scheme2", "encrypt1", "scheme1.encrypt1"),
    ("scheme2", "decrypt1", "scheme1.decrypt1"),
    ("scheme3", "ising_to_qubo", "core.ising_to_qubo"),
    ("scheme3", "build_roulette", "scheme2.build_roulette"),
    ("scheme3", "sample_weight", "scheme2.sample_weight"),
    ("scheme3", "regular_edge_set", "scheme3.regular_edge_set"),
    ("scheme3", "decrypt2", "scheme2.decrypt2"),
)

LEAF = frozenset({"core.eval_ising", "scheme2.permute_bits", "scheme2.sample_weight"})


def _terms(model) -> int:
    if hasattr(model, "J"):  # IsingModel; QuboModel keeps all terms in A
        return sum(1 for h in model.h if h != 0.0) + len(model.J)
    return len(model.A)


def _count_energy_table(tracer, args, out, seconds):
    model = args[0]
    tracer.counts["oracle.energy_table.term_states"] += _terms(model) << model.n
    per_n = tracer.energy_table_by_n[model.n]
    per_n[0] += 1
    per_n[1] += seconds


def _count_optimize(tracer, args, out, seconds):
    tracer.counts["qaoa.optimize.evals"] += len(out[1])


def _count_sample(tracer, args, out, seconds):
    tracer.counts["qaoa.sample.outcomes"] += len(out.weights)
    tracer.sample_shots += args[1]


def _count_decrypt2(tracer, args, out, seconds):
    tracer.counts["scheme2.decrypt2.outcomes_in"] += len(args[0].weights)
    tracer.counts["scheme2.decrypt2.outcomes_out"] += len(out.weights)


COUNTERS = {
    "oracle.energy_table": _count_energy_table,
    "qaoa.optimize": _count_optimize,
    "qaoa.sample": _count_sample,
    "scheme2.decrypt2": _count_decrypt2,
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pipeline id, child seconds]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent index, name) -> [calls, seconds]
        self.counts = defaultdict(int)
        self.energy_table_by_n = defaultdict(lambda: [0, 0.0])
        self.sample_shots = 0
        self._stack = []
        self._pipeline = None
        self._saved = []

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._pipeline, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]} closed out of order")
        seconds = span[2] - span[1]
        if span[3] is not None:
            self.spans[span[3]][5] += seconds
        return seconds

    def leaf(self, name: str, seconds: float) -> None:
        parent = self._stack[-1]
        record = self.leaves[(parent, name)]
        record[0] += 1
        record[1] += seconds
        self.spans[parent][5] += seconds

    def begin_pipeline(self, pipeline_id: int) -> int:
        self._pipeline = pipeline_id
        return self.open("pipeline")

    # -- patching -----------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        calls_key = name + ".calls"
        counts = self.counts
        clock = time.perf_counter

        if name in LEAF:
            def traced(*args, **kwargs):
                start = clock()
                out = fn(*args, **kwargs)
                self.leaf(name, clock() - start)
                counts[calls_key] += 1
                return out
        else:
            def traced(*args, **kwargs):
                index = self.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    seconds = self.close(index)
                counts[calls_key] += 1
                if counter is not None:
                    counter(self, args, out, seconds)
                return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module("isingcloak." + module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- reduction ----------------------------------------------------------

    def totals(self):
        """Busy and self seconds per span name, leaves included."""
        busy = defaultdict(float)
        own = defaultdict(float)
        for name, start, end, _parent, _pipeline, child in self.spans:
            busy[name] += end - start
            own[name] += end - start - child
        for (_parent, name), (_calls, seconds) in self.leaves.items():
            busy[name] += seconds
            own[name] += seconds
        return busy, own

    def records(self):
        """Spans as JSON-ready dicts, leaf aggregates attached to their parents."""
        leaves = defaultdict(dict)
        for (parent, name), (calls, seconds) in self.leaves.items():
            leaves[parent][name] = {"calls": calls, "s": seconds}
        for index, (name, start, end, parent, pipeline, _child) in enumerate(self.spans):
            record = {"id": index, "name": name, "start": start, "end": end,
                      "parent": parent, "pipeline": pipeline}
            if index in leaves:
                record["leaves"] = leaves[index]
            yield record
