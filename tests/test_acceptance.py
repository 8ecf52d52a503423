"""Acceptance suite: golden-example reproduction plus property checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
any failure also fails the test). Every expected value is exact; there are
no tolerances anywhere.
"""

import json
import pathlib
import random
import time
from fractions import Fraction
from itertools import product

from click.testing import CliRunner

from weakind import axioms, granular, independence, tables
from weakind.cli import main as cli_main

import oracles
import util

DATA = pathlib.Path(__file__).parent / "data"

RESULTS = []


def report(num, name, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def cli(*args, input=None):
    return CliRunner().invoke(cli_main, list(args), input=input)


def test_criterion_01_contextual_weak_reproduction(cwi_cpt):
    start = time.monotonic()
    v0 = independence.check_cwi(cwi_cpt, ("X",), ("Z", "W"), {"Y": "0"})
    v1 = independence.check_cwi(cwi_cpt, ("X",), ("Z", "W"), {"Y": "1"})
    elapsed = time.monotonic() - start
    pi1, pi2 = v0.certificate.classes
    ok = (
        v0.holds
        and [c.labels for c in v0.certificate.classes]
        == [
            ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"),
            ("t9", "t10", "t11", "t12"),
        ]
        and pi1.x_values == (("0",), ("1",))
        and pi1.z_values == (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
        and pi1.satisfied
        and not pi2.satisfied
        and not v1.holds
        and elapsed < 1.0
    )
    # Same verdict through the command-line surface.
    out = cli(
        "check", "--kind", "cwi", "--x", "X", "--z", "Z,W", "--context", "Y=0",
        str(DATA / "cwi_cpt.json"),
    )
    ok = ok and out.exit_code == 0 and json.loads(out.output)["holds"] is True
    report(1, "context-weak reproduction", ok, f"{elapsed:.3f}s")


def test_criterion_02_weak_independence_reproduction(wi_cpt):
    start = time.monotonic()
    wi = independence.check_wi(wi_cpt, ("X",), ("Z", "W"), ("Y",))
    ci = independence.check_ci(wi_cpt, ("X",), ("Z", "W"), ("Y",))
    elapsed = time.monotonic() - start
    expected_classes = [
        tuple(f"t{i}" for i in range(1, 9)),
        tuple(f"t{i}" for i in range(9, 17)),
        tuple(f"t{i}" for i in range(17, 25)),
        tuple(f"t{i}" for i in range(25, 33)),
    ]
    ok = (
        wi.holds
        and [c.labels for c in wi.certificate.classes] == expected_classes
        and not ci.holds
        and elapsed < 1.0
    )
    out = cli(
        "check", "--kind", "ci", "--x", "X", "--z", "Z,W", "--y", "Y",
        "--assert", str(DATA / "wi_cpt.json"),
    )
    ok = ok and out.exit_code == 1
    report(2, "weak-independence reproduction", ok, f"{elapsed:.3f}s")


def test_criterion_03_context_strong_reproduction(csi_cpt):
    v0 = independence.check_csi(csi_cpt, ("X",), ("Z", "W"), (), {"Y": "0"})
    v1 = independence.check_csi(csi_cpt, ("X",), ("Z", "W"), (), {"Y": "1"})
    ce = v1.certificate.counterexample
    ok = (
        v0.holds
        and not v1.holds
        and {ce.value, ce.reference} == {Fraction(2, 5), Fraction(3, 5)}
    )
    report(3, "context-strong reproduction", ok)


def test_criterion_04_nest_reproduction(nest_demo):
    nested = granular.nest(nest_demo, "B", ("A2", "A3"))
    rows = {key[0]: (value, key[1]) for key, value in nested.rows.items()}
    outers = {a1: v for a1, (v, _) in rows.items()}
    inner = nested.attributes[1].nested

    def cell(mapping):
        return granular.NestedCell(inner, {k: Fraction(v) for k, v in mapping.items()})

    ok = (
        outers == {"1": Fraction(1, 2), "2": Fraction(1, 4), "3": Fraction(1, 4)}
        and rows["1"][1]
        == cell({("1", "2"): "1/4", ("3", "4"): "1/2", ("5", "6"): "1/4"})
        and rows["2"][1] == cell({("1", "3"): "1/2", ("2", "4"): "1/2"})
        and rows["3"][1] == cell({("0", "0"): "1/2", ("0", "1"): "1/2"})
    )
    flat = granular.unnest(nested, "B")
    ok = ok and isinstance(flat, tables.Table) and flat.rows == nest_demo.rows
    report(4, "nest/unnest reproduction", ok)


def test_criterion_05_noncommuting_orders(noncommuting):
    commutation = granular.nest_commutes(noncommuting, ("A1",), ("A3",))
    wi = independence.check_wi(noncommuting, ("A1",), ("A3",), ("A2",))
    ok = not commutation.equal and not wi.holds
    report(5, "non-commuting coarsening orders", ok)


def _weak_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def test_criterion_06_equivalence_suite():
    start = time.monotonic()
    names = ("A", "B", "C")
    schema = tables.VariableSchema(
        tuple(tables.Variable(n, ("0", "1")) for n in names)
    )
    configs = list(schema.configs())
    triples = util.tripartitions(names, dedup=True)
    exhaustive = 0
    disagreements = 0
    for weights in _weak_compositions(9, 8):
        rows = {
            cfg: Fraction(w, 9) for cfg, w in zip(configs, weights) if w
        }
        table = tables.Table(schema, rows, "joint")
        for x, z, y in triples:
            exhaustive += 1
            wi = independence.check_wi(table, x, z, y)
            nc = granular.nest_commutes(table, x, z)
            if wi.holds != nc.equal:
                disagreements += 1
    n_tables = 11440  # weak compositions of 9 into 8 cells
    randoms = 0
    for table in util.random_tables(
        seed=600, count=1000, sizes=((3, 2), (3, 3), (4, 2), (4, 3))
    ):
        for x, z, y in util.tripartitions(table.schema.names, dedup=True):
            randoms += 1
            wi = independence.check_wi(table, x, z, y)
            nc = granular.nest_commutes(table, x, z)
            if wi.holds != nc.equal:
                disagreements += 1
            # The certificate against the definitions, from the rows alone; the
            # exhaustive half is left out, as it would more than double the time.
            oracles.verify_weak_certificate(table, wi)
    elapsed = time.monotonic() - start
    ok = (
        disagreements == 0
        and exhaustive == n_tables * len(triples)
        and randoms >= 1000
        and elapsed < 300
    )
    report(
        6,
        "weak-independence/nest-commute equivalence",
        ok,
        f"{exhaustive} exhaustive + {randoms} random checks, {elapsed:.0f}s",
    )


def test_criterion_07_generalization_properties():
    rng = random.Random(700)
    stream = list(util.random_tables(seed=701, count=700, sizes=((3, 2), (3, 3)))) + [
        util.random_factorized_table(rng, [f"V{i}" for i in range(3)])
        for _ in range(300)
    ]
    ci_held = wi_viol = csi_held = cwi_viol = 0
    for table in stream:
        names = table.schema.names
        for x, z, y in util.tripartitions(names, dedup=True):
            if independence.check_ci(table, x, z, y).holds:
                ci_held += 1
                if not independence.check_wi(table, x, z, y).holds:
                    wi_viol += 1
        for x, z, c_vars in util.tripartitions(names):
            if not c_vars:
                continue
            for values in product(
                *(table.schema.variable(n).domain for n in c_vars)
            ):
                ctx = dict(zip(c_vars, values))
                if independence.check_csi(table, x, z, (), ctx).holds:
                    csi_held += 1
                    if not independence.check_cwi(table, x, z, ctx).holds:
                        cwi_viol += 1
    ok = wi_viol == 0 and cwi_viol == 0 and ci_held > 0 and csi_held > 0
    report(
        7,
        "strong implies weak generalization",
        ok,
        f"{len(stream)} tables, CI held {ci_held}, CSI held {csi_held}",
    )


def test_criterion_08_oracle_equivalence(cwi_cpt, wi_cpt, noncommuting, nest_demo):
    checks = 0
    mismatches = 0

    # Golden fixtures: every statement whose support stays within 12 rows.
    for ctx in ({"Y": "0"}, {"Y": "1"}):
        checks += 1
        if independence.check_cwi(
            cwi_cpt, ("X",), ("Z", "W"), ctx
        ).holds != oracles.cwi_oracle(cwi_cpt, ("X",), ("Z", "W"), ctx):
            mismatches += 1
    for table, triple in (
        (noncommuting, (("A1",), ("A3",), ("A2",))),
        (nest_demo, (("A1",), ("A2", "A3"), ())),
        (nest_demo, (("A2",), ("A3",), ("A1",))),
    ):
        checks += 1
        x, z, y = triple
        if independence.check_wi(table, x, z, y).holds != oracles.wi_oracle(
            table, x, z, y
        ):
            mismatches += 1

    # Random tables with supports of at most 12 rows.
    rng = random.Random(800)
    produced = 0
    while produced < 500:
        table = tables.random_joint_table(
            rng, [(f"V{i}", rng.choice([2, 2, 3])) for i in range(3)]
        )
        if len(table.support()) > 12:
            continue
        produced += 1
        for x, z, y in util.tripartitions(table.schema.names, dedup=True):
            checks += 1
            if independence.check_wi(table, x, z, y).holds != oracles.wi_oracle(
                table, x, z, y
            ):
                mismatches += 1

    # Composition commutation against the brute-force pair-set comparison.
    from weakind.partitions import commutes

    for _ in range(500):
        n = rng.randint(1, 8)
        p = _random_partition(rng, n)
        q = _random_partition(rng, n)
        checks += 1
        p_pairs = oracles.partition_pairs(p.blocks)
        q_pairs = oracles.partition_pairs(q.blocks)
        pq = oracles.compose_pairs(p_pairs, q_pairs, n)
        qp = oracles.compose_pairs(q_pairs, p_pairs, n)
        if commutes(p, q).commutes != (pq == qp):
            mismatches += 1

    ok = mismatches == 0
    report(8, "brute-force oracle equivalence", ok, f"{checks} comparisons")


def _random_partition(rng, n):
    labels = [rng.randint(0, 3) for _ in range(n)]
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return oracles.partition_of(n, groups.values())


def test_criterion_09_axiom_engine():
    rng = random.Random(900)
    universes = [("A", "B"), ("A", "B", "C"), ("A", "B", "C", "D")]
    failures = []
    for i in range(100):
        names = universes[rng.randrange(len(universes))]
        s = {_random_axiom_statement(rng, names) for _ in range(rng.randint(0, 3))}
        t = s | {_random_axiom_statement(rng, names) for _ in range(rng.randint(0, 2))}
        cs = axioms.closure(s, names)
        ct = axioms.closure(t, names)
        if not s <= cs.statements:
            failures.append(f"not inflationary at {i}")
        if not cs.statements <= ct.statements:
            failures.append(f"not monotone at {i}")
        if axioms.closure(cs.statements, names).statements != cs.statements:
            failures.append(f"not idempotent at {i}")
        if not all(axioms.replay_trace(tr) for tr in cs.traces):
            failures.append(f"trace replay failed at {i}")
    probe_a = axioms.soundness_probe(3, 2, trials=100, seed=0)
    probe_b = axioms.soundness_probe(3, 2, trials=100, seed=0)
    stable = json.dumps(probe_a.to_json_dict()) == json.dumps(probe_b.to_json_dict())
    # Documented outcome for the default seed: no violations of the repaired
    # rule readings; any violation would be reported, not suppressed.
    ok = not failures and stable and probe_a.violations == ()
    report(
        9,
        "axiom closure and soundness probe",
        ok,
        f"probe evaluated {probe_a.evaluated}, violations {len(probe_a.violations)}",
    )


def _random_axiom_statement(rng, names):
    roles = [rng.choice("XZY") for _ in names]
    x = frozenset(n for n, r in zip(names, roles) if r == "X")
    z = frozenset(n for n, r in zip(names, roles) if r == "Z")
    y = frozenset(n for n, r in zip(names, roles) if r == "Y")
    kind = rng.choice(["CI", "WI"])
    return axioms.AxiomStatement(kind, x, z, y, tuple(names))


def test_criterion_10_round_trips(csi_cpt, cwi_cpt, wi_cpt, nest_demo, noncommuting):
    rng = random.Random(1000)
    bad = 0
    total = 0

    fixtures = [csi_cpt, cwi_cpt, wi_cpt, nest_demo, noncommuting]
    for table in fixtures:
        total += 1
        if tables.load_table(tables.serialize_table(table)) != table:
            bad += 1
    for table in (nest_demo, noncommuting):
        total += 1
        names = list(table.schema.names)
        chosen = tuple(names[: rng.randint(1, len(names) - 1)])
        back = granular.unnest(granular.nest(table, "B", chosen), "B")
        if not granular.canonical_equal(back, table):
            bad += 1

    for table in util.random_tables(seed=1001, count=500):
        total += 2
        if tables.load_table(tables.serialize_table(table)) != table:
            bad += 1
        names = list(table.schema.names)
        rng.shuffle(names)
        chosen = tuple(names[: rng.randint(1, len(names) - 1)])
        back = granular.unnest(granular.nest(table, "B", chosen), "B")
        if not granular.canonical_equal(back, table):
            bad += 1

    report(10, "serialization and coarsening round trips", bad == 0, f"{total} trips")
