"""Span recorders installed on the library from outside, for the traced run.

``install`` replaces the public entry points of each module with wrappers
that record a span per call: name, start, end, parent span and op id. It
also rebinds the names one module imports from another (``independence``
binds ``theta``/``commutes``/``projected_domain``/``restrict_context`` by
name, and ``closure`` calls ``apply_*``/``repair`` as module globals), so
those calls are seen too. ``uninstall`` restores the originals.

Spans are kept in memory in flat arrays and written out at the end. Calls
to a few tiny, very frequent leaf functions (the rule applications,
``repair``, ``projected_domain``) would each cost more memory than the work
they measure, so they are folded into one (parent, name, calls, total)
record per parent span instead; a leaf has no children. A span's self time
is its duration minus the time its children (spans and folded leaves) cover.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter_ns

from weakind import axioms, granular, independence, partitions, tables

# (owner, attribute, span name, leaf). Owners are modules or classes; the
# same function bound in two namespaces is listed once per namespace.
ENTRY_POINTS = [
    (tables, "load_table", "tables.load", False),
    (tables.Table, "digest", "tables.digest", False),
    (tables.Table, "support", "tables.support", False),
    (tables.Table, "__post_init__", "tables.build", False),
    (partitions, "theta", "partitions.theta", False),
    (independence, "theta", "partitions.theta", False),
    (partitions, "commutes", "partitions.commutes", False),
    (independence, "commutes", "partitions.commutes", False),
    (partitions, "restrict_context", "partitions.restrict", False),
    (independence, "restrict_context", "partitions.restrict", False),
    (partitions, "projected_domain", "partitions.projected_domain", True),
    (independence, "projected_domain", "partitions.projected_domain", True),
    (independence, "check_ci", "independence.check_ci", False),
    (independence, "check_csi", "independence.check_csi", False),
    (independence, "check_pci", "independence.check_pci", False),
    (independence, "check_wi", "independence.check_wi", False),
    (independence, "check_cwi", "independence.check_cwi", False),
    (independence, "enumerate_statements", "independence.enumerate", False),
    (granular, "wi_nest_equivalence", "granular.wi_nest_equivalence", False),
    (granular, "nest_commutes", "granular.nest_commutes", False),
    (granular, "nest", "granular.nest", False),
    (granular, "unnest", "granular.unnest", False),
    (granular, "canonical_equal", "granular.canonical_equal", False),
    (granular.NestedTable, "__post_init__", "granular.build", False),
    (axioms, "closure", "axioms.closure", False),
    (axioms, "apply_wi1", "axioms.apply_wi1", True),
    (axioms, "apply_wi2", "axioms.apply_wi2", True),
    (axioms, "apply_wi3", "axioms.apply_wi3", True),
    (axioms, "apply_ciwi1", "axioms.apply_ciwi1", True),
    (axioms, "apply_ciwi2", "axioms.apply_ciwi2", True),
    (axioms, "repair", "axioms.repair", True),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        # (parent span, leaf name) -> [calls, total ns]
        self.leaves: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0])
        # result-derived work counters: name -> value
        self.counters: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def run(self, name: str, op_id: int, fn, *args):
        """Call ``fn`` as the root span of one op."""
        self.op_id = op_id
        return self._span(self._name_id(name), fn, args, {})

    def _span(self, nid: int, fn, args, kwargs):
        index = len(self.start)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter_ns()
            self.stack.pop()

    def _wrap(self, fn, name: str, leaf: bool):
        nid = self._name_id(name)
        count = _COUNTERS.get(name)

        if leaf:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec = self.leaves[self.stack[-1] if self.stack else -1, nid]
                    rec[0] += 1
                    rec[1] += perf_counter_ns() - t0
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = self._span(nid, fn, args, kwargs)
                if count is not None:
                    count(self.counters, result)
                return result

        return wrapper

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for owner, attr, name, leaf in ENTRY_POINTS:
            fn = owner.__dict__[attr]
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name, leaf)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], list[dict]]:
        """Per-name self seconds and call counts, and per-op layer self times."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        per_op: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for (p, nid), (c, total) in self.leaves.items():
            name = self.names[nid]
            self_ns[name] += total
            calls[name] += c
            if p >= 0:
                child[p] += total
                per_op[self.op[p]][name.split(".")[0]] += total
        for i in range(n):
            name = self.names[self.name[i]]
            own = self.end[i] - self.start[i] - child[i]
            self_ns[name] += own
            calls[name] += 1
            per_op[self.op[i]][name.split(".")[0]] += own
        seconds = {k: v / 1e9 for k, v in self_ns.items()}
        ops = [
            {layer: ns / 1e9 for layer, ns in per_op[op].items()}
            for op in sorted(per_op)
        ]
        return seconds, dict(calls), ops

    def write(self, path) -> None:
        """Spans, then folded leaves, as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\top\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"span\t{self.op[i]}\t{self.names[self.name[i]]}\t{self.parent[i]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
            out.write("leaf\top\tname\tparent\tcalls\ttotal_ns\n")
            for (p, nid), (c, total) in sorted(self.leaves.items()):
                op = self.op[p] if p >= 0 else -1
                out.write(f"leaf\t{op}\t{self.names[nid]}\t{p}\t{c}\t{total}\n")


def _count_support(counters, support) -> None:
    counters["tables.rows"] += len(support)


def _count_verdict(counters, verdict) -> None:
    counters["independence.verdicts"] += 1
    counters["independence.holds"] += verdict.holds


def _count_commutation(counters, report) -> None:
    counters["granular.nest_commutes"] += 1
    counters["granular.commute_equal"] += report.equal


def _count_closure(counters, result) -> None:
    counters["axioms.statements"] += len(result.statements)
    counters["axioms.traces"] += len(result.traces)
    counters["axioms.ciwi2_traces"] += sum(t.rule == axioms.RULE_CIWI2 for t in result.traces)


_COUNTERS = {
    "tables.support": _count_support,
    "independence.check_ci": _count_verdict,
    "independence.check_csi": _count_verdict,
    "independence.check_pci": _count_verdict,
    "independence.check_wi": _count_verdict,
    "independence.check_cwi": _count_verdict,
    "granular.nest_commutes": _count_commutation,
    "axioms.closure": _count_closure,
}
