"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

It checks that each workload prints every metric named in BENCHMARK.json
with its unit, untraced and traced, and that the correctness gate counts a
deliberately wrong expected answer as a failure. The wrong answers are
planted in this test's inputs only.
"""

import contextlib
import io
import json

import pytest

import run

run.require_sources()

import workloads  # noqa: E402  (needs the sources on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _printed_result(fn, *args):
    """The result object as ``run.main`` prints it on the last line."""
    with contextlib.redirect_stdout(io.StringIO()):
        result = fn(*args)
    return json.loads(json.dumps(result))


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in declared}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_prints_every_end_to_end_metric(name):
    setup = run.Setup(name, seed=7, scale=workloads.TINY)
    result = _printed_result(run.untraced, name, setup, 0.05)
    _assert_metrics(result, SPEC["end_to_end"])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_prints_every_per_layer_metric(name):
    setup = run.Setup(name, seed=7, scale=workloads.TINY)
    result = _printed_result(run.traced, name, setup(), setup.root, 7)
    _assert_metrics(result, SPEC["per_layer"])


def _gate_failures(ops):
    outcome, _ = run.measure(ops, 0.0)
    return outcome.gate(), outcome.attempted


def test_gate_counts_a_wrong_expected_verdict():
    ops = workloads.build_check(workloads.generate_check(7, workloads.TINY))
    assert _gate_failures(ops)[0] == 0
    planted = next(op for op in ops if op.expect is True)
    planted.expect = False
    assert _gate_failures(ops) == (1, len(ops))


def test_gate_counts_a_wrong_oracle_answer():
    ops = workloads.build_equivalence(workloads.generate_equivalence(7, workloads.TINY))
    planted = next(op for op in ops if op.family == "equivalence")
    planted.expect = not planted.call().wi_holds
    assert _gate_failures(ops)[0] == 1


def test_gate_counts_a_wrong_closure_digest():
    ops = workloads.build_closure(workloads.generate_closure(7, workloads.TINY))
    assert _gate_failures(ops)[0] == 0
    ops[0].expect = "0" * 64
    assert _gate_failures(ops)[0] == 1
