#!/usr/bin/env python3
"""Benchmark for weakind: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload check-large --seed 1 --seconds 30 --trace 0

One process, one client thread, closed loop: each request starts when the
previous one has returned, so there is no queue and no wait time to report.
A run sets up the workload, makes one full pass over its fixed op set and
keeps cycling through it in shuffled passes until ``--seconds`` have
passed, then checks every distinct answer with the correctness gate
(``gate.py``), outside the timed region. Times are scaled to a reference
host speed (see ``REFERENCE_NS``); the unscaled figures are printed too.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` it makes an untraced, a traced and another untraced pass
over the op set and reports per-layer metrics of the traced pass, in
unscaled seconds; spans go to ``.bench_out/spans-<workload>-<seed>.tsv``.
Lines before the last one give details: sample counts, the tail percentile,
input properties per op family.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "closure_digests.json"

# Set-up is repeated this many times before measuring; its median is reported.
SETUP_REPEATS = 7

# Host-speed reference. Other tenants of a shared host can slow it by up to
# ~40% for tens of seconds at a time, longer than any repetition inside one
# run can average out. Every timed sample is therefore bracketed by a fixed
# pure-Python kernel (tuple-keyed dicts, Fractions, sorting: what the library
# spends its time on) and scaled by REFERENCE_NS / kernel time, so reported
# times are seconds on a host where the kernel takes exactly 1 ms. The kernel
# lives in the benchmark, so no change to the program can move it.
REFERENCE_NS = 1_000_000
# Tail percentile: the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10

WORKLOAD_NAMES = ("check-large", "equivalence-small", "closure-dense")


def require_sources() -> None:
    missing = [
        p for p in (SRC / "weakind" / "__init__.py", ROOT / "tests" / "oracles.py")
        if not p.is_file()
    ]
    if missing:
        sys.exit(f"bench: missing {', '.join(str(p) for p in missing)}; "
                 "run from the root of a weakind checkout")
    sys.path.insert(0, str(SRC))


def _import_seconds(modules: tuple[str, ...]) -> float:
    """Import time of the workload's modules in a fresh interpreter."""
    code = (
        "import time, importlib\n"
        "t = time.perf_counter()\n"
        f"for m in {list(modules)!r}: importlib.import_module(m)\n"
        "print(time.perf_counter() - t)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def _reference_kernel():
    counts: dict = {}
    total = Fraction(0)
    for i in range(200):
        key = (str(i % 17), str(i % 5), i)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return sorted(counts)[0], total


def probe_ns() -> int:
    """Time of one run of the reference kernel."""
    t0 = time.perf_counter_ns()
    _reference_kernel()
    return time.perf_counter_ns() - t0


def at_reference(ns: float, before: int, after: int) -> float:
    """A sample in seconds at reference speed, from the probes around it."""
    return ns * 2 * REFERENCE_NS / (before + after) / 1e9


class Setup:
    """Builds a workload's op set from its seeded raw inputs, timing each build.

    One set-up is the import of the workload's modules in a fresh
    interpreter plus building its inputs through the library; the
    benchmark's own random generation is done once and not timed.
    """

    def __init__(self, name: str, seed: int, scale: str) -> None:
        import workloads

        generate, self.build, self.root, self.modules = workloads.WORKLOADS[name]
        self.inputs = generate(seed, scale)
        self.recorded = None
        if name == "closure-dense" and DIGESTS.is_file():
            self.recorded = json.loads(DIGESTS.read_text()).get(str(seed))
        self.seconds: list[float] = []  # at reference speed
        self.unscaled: list[float] = []

    def __call__(self):
        before = probe_ns()
        imported = _import_seconds(self.modules)
        t0 = time.perf_counter()
        ops = self.build(self.inputs)
        took = imported + time.perf_counter() - t0
        self.unscaled.append(took)
        self.seconds.append(at_reference(took * 1e9, before, probe_ns()))
        if self.recorded is not None and len(self.recorded) == len(ops):
            for op, digest in zip(ops, self.recorded):
                op.expect = digest
        return ops


class Outcome:
    """Per-op latency samples, first answers and failure counts."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.samples: list[list[float]] = [[] for _ in ops]  # at reference speed
        self.unscaled: list[list[float]] = [[] for _ in ops]
        self.first: list[object] = [None] * len(ops)
        self.keys: list[object] = [None] * len(ops)
        self.answered = [0] * len(ops)
        self.raised = [0] * len(ops)
        self.changed = [0] * len(ops)
        self.attempted = 0

    def run(self, i: int, call) -> int | None:
        """Run op ``i`` once; its duration in ns, or None when it raised."""
        op = self.ops[i]
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            raw = call()
        except Exception:
            self.raised[i] += 1
            if self.raised[i] == 1:
                traceback.print_exc(file=sys.stderr)
            return None
        took = time.perf_counter_ns() - t0
        self.answered[i] += 1
        key = op.key(raw)
        if self.keys[i] is None:
            self.first[i], self.keys[i] = raw, key
        elif key != self.keys[i]:
            self.changed[i] += 1
        return took

    def gate(self) -> int:
        """Failed attempts: raised, answered differently, or failed the gate."""
        failed = 0
        for i, op in enumerate(self.ops):
            failed += self.raised[i] + self.changed[i]
            if self.keys[i] is not None and not op.check(op, self.first[i]):
                failed += self.answered[i] - self.changed[i]
        return failed


def measure(ops, seconds: float) -> tuple[Outcome, float]:
    """One full pass, then keep cycling until ``seconds`` have passed."""
    outcome = Outcome(ops)
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    # Each pass runs the ops in a fresh order, so the repetitions of one op
    # fall at unrelated moments and neighbouring ops share no slow spell.
    order = random.Random(0)
    pass_order: list[int] = []
    done = 0
    before = probe_ns()
    while done < len(ops) or time.perf_counter() < deadline:
        if not pass_order:
            pass_order = list(range(len(ops)))
            order.shuffle(pass_order)
        i = pass_order.pop()
        took = outcome.run(i, ops[i].call)
        after = probe_ns()
        if took is not None:
            outcome.samples[i].append(at_reference(took, before, after))
            outcome.unscaled[i].append(took / 1e9)
        before = after
        done += 1
    return outcome, time.perf_counter() - start


def latency_metrics(samples: list[list[float]]) -> tuple[dict, dict]:
    """Percentiles over the distinct ops, each op taken as its median sample.

    Repeating a fixed op set a time-dependent number of times would shift
    rank statistics with the repeat count, so the samples are the distinct
    ops, each at the median of its repetitions.
    """
    per_op = sorted(statistics.median(s) for s in samples if s)
    n = len(per_op)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    metrics = {
        "ops_per_s": n / sum(per_op),
        "latency_p50_s": statistics.median(per_op),
        "latency_tail_s": per_op[tail_index],
    }
    details = {
        "ops": n,
        "executions": sum(len(s) for s in samples),
        "tail_percentile": round(100.0 * (tail_index + 1) / n, 2),
        "tail_samples_beyond": n - 1 - tail_index,
    }
    return metrics, details


def describe(outcome: Outcome) -> dict:
    """Input properties per op family, from the inputs and the gated answers."""
    import gate

    families: dict[str, dict] = {}
    for op, raw in zip(outcome.ops, outcome.first):
        fam = families.setdefault(op.family, {"ops": 0})
        fam["ops"] += 1
        props = op.props
        found = {}
        if "table" in props:
            table = props["table"]
            found["support_rows"] = len(table.rows)
            found["declared_configs"] = 1
            for v in table.schema.variables:
                found["declared_configs"] *= len(v.domain)
        if props.get("split"):
            found["max_join_block"] = gate.max_join_block(props["table"], *props["split"])
        for k in ("universe", "premises"):
            if k in props:
                found[k] = props[k]
        if "verb" in props:
            verbs = fam.setdefault("verbs", {})
            verbs[props["verb"]] = verbs.get(props["verb"], 0) + 1
        if isinstance(raw, str):
            doc = json.loads(raw)
            verdicts = [v["holds"] for v in doc.get("verdicts", [doc])]
        elif hasattr(raw, "wi_holds"):
            verdicts = [raw.wi_holds]
        else:
            verdicts = []
            if hasattr(raw, "statements"):
                found["closure_statements"] = len(raw.statements)
        if verdicts:
            fam["holds"] = fam.get("holds", 0) + sum(verdicts)
            fam["fails"] = fam.get("fails", 0) + len(verdicts) - sum(verdicts)
        for k, v in found.items():
            lo, hi = fam.get(k, (v, v))
            fam[k] = [min(lo, v), max(hi, v)]
    return families


def untraced(name: str, setup: Setup, seconds: float) -> dict:
    for _ in range(SETUP_REPEATS):
        ops = setup()
    outcome, wall = measure(ops, seconds)
    setup_s = statistics.median(setup.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, details = latency_metrics(outcome.samples)
    unscaled, _ = latency_metrics(outcome.unscaled)
    failed = outcome.gate()
    details.update(
        wall_s=wall, fail_ratio=failed / outcome.attempted,
        setup_samples=len(setup.seconds),
        unscaled=dict(unscaled, setup_s=statistics.median(setup.unscaled)),
        families=describe(outcome),
    )
    if name == "closure-dense":
        import gate
        details["statement_digests"] = [gate.statement_digest(r) for r in outcome.first if r]
    units = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
             "latency_tail_s": "s", "peak_rss_mb": "MB"}
    values = dict(metrics, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    print(json.dumps({"details": details}))
    for metric, unit in units.items():
        print(f"{name}  {metric:<16} {values[metric]:.6g} {unit}")
    print(f"{name}  {'fail_ratio':<16} {details['fail_ratio']:.6g} ratio "
          f"({failed}/{outcome.attempted})")
    return {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(name: str, ops, root: str, seed: int) -> dict:
    import tracing

    def plain_pass(outcome: Outcome) -> float:
        gc.collect()
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            outcome.run(i, op.call)
        return time.perf_counter() - t0

    # Untraced passes before and after the traced one, so that warm-up does
    # not count against tracing.
    plain = Outcome(ops)
    plain_walls = [plain_pass(plain)]
    tracer = tracing.Tracer()
    tracer.install()
    outcome = Outcome(ops)
    try:
        gc.collect()
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            outcome.run(i, lambda op=op, i=i: tracer.run(root, i, op.call))
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    plain_walls.append(plain_pass(plain))
    plain_wall = statistics.mean(plain_walls)
    failed = plain.gate() + outcome.gate()
    attempted = plain.attempted + outcome.attempted

    self_s, calls, per_op = tracer.self_times()
    c = tracer.counters
    s = lambda *names: sum(self_s.get(n, 0.0) for n in names)
    layer_self = {}
    for n, v in self_s.items():
        layer = n.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + v
    apply_names = [f"axioms.apply_{r}" for r in ("wi1", "wi2", "wi3", "ciwi1", "ciwi2")]
    values = {
        "cli.self_s": (s("cli.main"), "s"),
        "tables.load_s": (s("tables.load"), "s"),
        "tables.digest_s": (s("tables.digest"), "s"),
        "tables.support_s": (s("tables.support"), "s"),
        "tables.support_calls": (calls.get("tables.support", 0), "count"),
        "tables.build_s": (s("tables.build"), "s"),
        "tables.rows": (c["tables.rows"], "count"),
        "partitions.commutes_s": (s("partitions.commutes"), "s"),
        "partitions.commutes_calls": (calls.get("partitions.commutes", 0), "count"),
        "partitions.theta_s": (s("partitions.theta"), "s"),
        "partitions.theta_calls": (calls.get("partitions.theta", 0), "count"),
        "partitions.restrict_s": (s("partitions.restrict"), "s"),
        "partitions.projected_domain_s": (s("partitions.projected_domain"), "s"),
        "independence.strong_self_s": (
            s("independence.check_ci", "independence.check_csi", "independence.check_pci"), "s"),
        "independence.weak_self_s": (s("independence.check_wi", "independence.check_cwi"), "s"),
        "independence.enumerate_self_s": (s("independence.enumerate"), "s"),
        "independence.verdicts": (c["independence.verdicts"], "count"),
        "independence.holds_ratio": (
            _ratio(c["independence.holds"], c["independence.verdicts"]), "ratio"),
        "granular.nest_s": (s("granular.nest"), "s"),
        "granular.nest_calls": (calls.get("granular.nest", 0), "count"),
        "granular.build_s": (s("granular.build"), "s"),
        "granular.unnest_s": (s("granular.unnest"), "s"),
        "granular.canonical_equal_s": (s("granular.canonical_equal"), "s"),
        "granular.commute_equal_ratio": (
            _ratio(c["granular.commute_equal"], c["granular.nest_commutes"]), "ratio"),
        "axioms.closure_self_s": (s("axioms.closure"), "s"),
        "axioms.rule_apply_s": (s(*apply_names), "s"),
        "axioms.ciwi2_attempts": (calls.get("axioms.apply_ciwi2", 0), "count"),
        "axioms.ciwi2_fired_ratio": (
            _ratio(c["axioms.ciwi2_traces"], calls.get("axioms.apply_ciwi2", 0)), "ratio"),
        "axioms.inserts": (calls.get("axioms.repair", 0), "count"),
        "axioms.insert_new_ratio": (
            _ratio(c["axioms.traces"], calls.get("axioms.repair", 0)), "ratio"),
        "axioms.statements": (c["axioms.statements"], "count"),
    }
    for layer in ("tables", "partitions", "independence", "granular", "axioms"):
        values[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    values["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    values["trace.spans"] = (len(tracer.start), "count")

    by_family: dict[str, dict[str, float]] = {}
    for op, layers in zip(ops, per_op):
        fam = by_family.setdefault(op.family, {})
        for layer, v in layers.items():
            fam[layer] = fam.get(layer, 0.0) + v
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{name}-{seed}.tsv"
    tracer.write(spans)
    print(json.dumps({"details": {
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "spans_file": str(spans.relative_to(ROOT)),
        "layer_self_s_by_family": by_family,
    }}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_sources()
    setup = Setup(args.workload, args.seed, "full")
    if args.trace:
        result = traced(args.workload, setup(), setup.root, args.seed)
    else:
        result = untraced(args.workload, setup, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
