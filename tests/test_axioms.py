import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from weakind import axioms, independence
from weakind.axioms import (
    AxiomStatement,
    apply_ciwi1,
    apply_ciwi2,
    apply_wi1,
    apply_wi2,
    apply_wi3,
    closure,
    repair,
    replay_trace,
    soundness_probe,
    statement,
    statement_from_json,
)
from weakind.errors import LimitError, RuleShapeError

U3 = ("A", "B", "C")
U4 = ("A", "B", "C", "D")


def fs(*names):
    return frozenset(names)


# ---------------------------------------------------------------------------
# literal rule applications
# ---------------------------------------------------------------------------


def test_wi1_literal():
    s = apply_wi1(U3, ("A",), ("A", "B"))
    assert s == AxiomStatement("WI", fs("A"), fs("C"), fs("A", "B"), U3)
    assert s.non_disjoint and not s.degenerate


def test_wi1_degenerate_edges():
    full = apply_wi1(U3, U3, U3)
    assert full.z == frozenset() and full.degenerate
    empty = apply_wi1(U3, (), ("A",))
    assert empty.x == frozenset() and empty.degenerate
    assert empty.z == fs("B", "C")


def test_wi1_guard():
    with pytest.raises(RuleShapeError):
        apply_wi1(U3, ("A",), ("B",))


def test_wi2_literal():
    premise = statement("WI", ("A",), ("B",), U4)  # WI(A ⊥ CD | B)
    first, second = apply_wi2(premise, ("B",))
    assert first == AxiomStatement("WI", fs("A"), fs("B", "C", "D"), fs("B"), U4)
    assert first.non_disjoint
    assert second == AxiomStatement("WI", fs("A", "B"), fs("C", "D"), fs("B"), U4)
    assert second.non_disjoint
    # Both repair back to the premise.
    assert repair(first)[0] == premise
    assert repair(second)[0] == premise


def test_wi2_empty_w_is_identity():
    premise = statement("WI", ("A",), ("B",), U4)
    first, second = apply_wi2(premise, ())
    assert first == premise and second == premise


def test_wi2_guards():
    premise = statement("WI", ("A",), ("B",), U4)
    with pytest.raises(RuleShapeError):
        apply_wi2(premise, ("C",))  # W not inside Y
    bad = AxiomStatement("WI", fs("A"), fs("C"), fs("B"), U4)  # not covering
    with pytest.raises(RuleShapeError):
        apply_wi2(bad, ())


def test_wi3_literal():
    premise = statement("WI", ("A",), ("B",), U4)
    assert apply_wi3(premise, ("C",)) == AxiomStatement(
        "WI", fs("A"), fs("D"), fs("B", "C"), U4
    )
    assert apply_wi3(premise, ()) == premise
    degenerate = apply_wi3(premise, ("C", "D"))
    assert degenerate.z == frozenset() and degenerate.degenerate


def test_wi3_guards():
    premise = statement("WI", ("A",), ("B",), U4)
    with pytest.raises(RuleShapeError):
        apply_wi3(premise, ("A",))
    with pytest.raises(RuleShapeError):
        apply_wi3(premise, ("B",))


def test_ciwi1_literal():
    premise = statement("CI", ("A",), ("B",), U3)
    conclusion = apply_ciwi1(premise)
    assert conclusion == AxiomStatement("WI", fs("B"), fs("C"), fs("B"), U3)
    assert conclusion.non_disjoint
    degenerate = apply_ciwi1(statement("CI", ("A",), (), U3))
    assert degenerate.x == frozenset() and degenerate.degenerate
    with pytest.raises(RuleShapeError):
        apply_ciwi1(statement("WI", ("A",), ("B",), U3))


def test_ciwi2_literal():
    p1 = statement("WI", ("A",), ("B", "C"), U4)  # WI(A ⊥ D | BC)
    p2 = statement("WI", ("A",), ("B", "D"), U4)  # WI(A ⊥ C | BD)
    p3 = statement("CI", ("C",), ("A", "B"), U4)  # I(C ⊥ D | BA)
    conclusion = apply_ciwi2(p1, p2, p3)
    assert conclusion == AxiomStatement("WI", fs("A"), fs("C", "D"), fs("B"), U4)


def test_ciwi2_collapsed_z1():
    # Z1 empty: the conclusion coincides with the first premise.
    p1 = statement("WI", ("A",), ("B",), U3)  # WI(A ⊥ C | B)
    p2 = AxiomStatement("WI", fs("A"), frozenset(), fs("B", "C"), U3)
    p3 = AxiomStatement("CI", frozenset(), fs("C"), fs("A", "B"), U3)
    assert apply_ciwi2(p1, p2, p3) == p1


def test_ciwi2_universe_guard():
    p1 = statement("WI", ("A",), ("B", "C"), U4)
    p2 = statement("WI", ("A",), ("B", "D"), U4)
    p3 = statement("CI", ("C",), ("A", "B"), ("A", "B", "C", "E"))
    with pytest.raises(RuleShapeError):
        apply_ciwi2(p1, p2, p3)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def wi1_canonical_instances(universe):
    out = set()
    names = list(universe)
    for mask in range(2 ** len(names)):
        y = tuple(n for i, n in enumerate(names) if mask >> i & 1)
        out.add(repair(apply_wi1(universe, (), y))[0])
    return out


def test_closure_empty_premises_is_reflexivity():
    result = closure([], ("A", "B"))
    assert result.statements == frozenset(wi1_canonical_instances(("A", "B")))


def test_closure_contains_wi3_conclusions():
    premise = statement("WI", ("A",), ("B",), U4)
    result = closure([premise], U4)
    assert statement("WI", ("A",), ("B", "C"), U4) in result.statements
    assert statement("WI", ("A",), ("B", "D"), U4) in result.statements


def test_closure_idempotent():
    premise = statement("WI", ("A",), ("B",), U4)
    once = closure([premise], U4)
    twice = closure(once.statements, U4)
    assert once.statements == twice.statements


def test_closure_inflationary_and_monotone():
    rng = random.Random(9)
    names = U4
    for _ in range(20):
        s = {random_statement(rng, names) for _ in range(rng.randint(0, 3))}
        t = s | {random_statement(rng, names) for _ in range(rng.randint(0, 2))}
        cs = closure(s, names).statements
        ct = closure(t, names).statements
        assert s <= cs
        assert cs <= ct


def random_statement(rng, names):
    roles = [rng.choice("XZY") for _ in names]
    x = [n for n, r in zip(names, roles) if r == "X"]
    z = [n for n, r in zip(names, roles) if r == "Z"]
    y = [n for n, r in zip(names, roles) if r == "Y"]
    kind = rng.choice(["CI", "WI"])
    return AxiomStatement(kind, frozenset(x), frozenset(z), frozenset(y), tuple(names))


def test_traces_replay():
    premise = statement("WI", ("A",), ("B",), U4)
    ci = statement("CI", ("C",), ("A", "B"), U4)
    result = closure([premise, ci], U4)
    assert result.traces
    assert all(replay_trace(t) for t in result.traces)


def test_closure_rule_restriction():
    premise = statement("WI", ("A",), ("B",), U4)
    result = closure([premise], U4, rules=("WI3",))
    assert statement("WI", ("A",), ("B", "C"), U4) in result.statements
    # Reflexivity instances are absent without their rule.
    assert repair(apply_wi1(U4, (), ()))[0] not in result.statements


def test_closure_universe_bound():
    with pytest.raises(LimitError):
        closure([], tuple(f"V{i}" for i in range(9)))


def test_closure_unknown_rule():
    with pytest.raises(RuleShapeError):
        closure([], U3, rules=("WI9",))
    with pytest.raises(RuleShapeError):
        closure([], U3, rules=(r for r in ("WI2", "WI9")))


def test_closure_reads_rules_once():
    premise = statement("WI", ("A",), ("B",), U4)
    from_tuple = closure([premise], U4, rules=("WI2", "WI3"))
    from_generator = closure([premise], U4, rules=(r for r in ("WI2", "WI3")))
    assert len(from_tuple.statements) == 4
    assert from_generator == from_tuple


def bench_shaped_premises(seed, names, n_ci, count):
    """Premises with one variable in X, one in Z and the rest in Y.

    Unlike uniformly random roles at these sizes, such premises combine
    through CIWI2. The first ``n_ci`` are CI, the rest WI.
    """
    rng = random.Random(seed)
    kinds = ["CI"] * n_ci + ["WI"] * (count - n_ci)
    premises: dict[tuple, AxiomStatement] = {}
    while len(premises) < len(kinds):
        kind = kinds[len(premises)]
        x, z, *y = rng.sample(names, len(names))
        premises.setdefault((kind, x, z), statement(kind, (x,), y, names))
    return list(premises.values())


@st.composite
def closure_inputs(draw):
    """Premise sets over 3-5 variables, with a random subset of the rules.

    Each premise with one variable in X, one in Z and the rest in Y is
    drawn with even odds. Such dense sets chain through CIWI2 with several
    matches per pop, which is where firing order shows. A few more premises
    are any canonical role assignment (degenerate ones included) or
    arbitrary, possibly overlapping or non-covering, variable sets, some
    with the universe in reverse order.
    """
    names = tuple("ABCDE"[: draw(st.integers(3, 5))])
    kinds = st.sampled_from(["CI", "WI"])
    subsets = st.sets(st.sampled_from(names)).map(frozenset)
    pairs = [
        statement(kind, (x,), set(names) - {x, z}, names)
        for kind in ("CI", "WI") for x in names for z in names if x != z
    ]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    premises = [p for p, keep in zip(pairs, mask) if keep]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            roles = draw(st.lists(st.sampled_from("XZY"), min_size=len(names),
                                  max_size=len(names)))
            x, z, y = (frozenset(n for n, r in zip(names, roles) if r == role)
                       for role in "XZY")
        else:
            x, z, y = draw(subsets), draw(subsets), draw(subsets)
        universe = draw(st.sampled_from([names, names[::-1]]))
        premises.append(AxiomStatement(draw(kinds), x, z, y, universe))
    rules = tuple(draw(st.sets(st.sampled_from(axioms.ALL_RULES))))
    return draw(st.permutations(premises)), names, rules


@given(closure_inputs())
@example((  # a WI statement that is its own CIWI2 partner
    [statement("CI", (), U3, U3), statement("WI", ("A",), ("B", "C"), U3)],
    U3,
    axioms.ALL_RULES,
))
@example((  # a premise whose universe tuple is not sorted
    [statement("WI", ("A",), (), U3),
     AxiomStatement("WI", fs("A"), fs("C"), fs("B"), ("C", "B", "A"))],
    U3,
    axioms.ALL_RULES,
))
@example((  # non-canonical premises: overlapping, and not covering
    [AxiomStatement("CI", fs("A"), fs("A", "B"), fs("B"), U4),
     AxiomStatement("WI", fs("A"), fs("B"), frozenset(), U4),
     statement("CI", ("C",), ("A", "B"), U4)],
    U4,
    axioms.ALL_RULES,
))
@example((  # every rule but WI1
    [statement("WI", ("A",), ("B", "C"), U4), statement("WI", ("A",), ("B", "D"), U4),
     statement("CI", ("C",), ("A", "B"), U4)],
    U4,
    ("WI2", "WI3", "CIWI1", "CIWI2"),
))
@example((  # WI3 without WI1: every skipped expansion rests on an earlier one
    bench_shaped_premises(1, tuple("ABCDE"), 8, 20), tuple("ABCDE"), ("WI3", "CIWI1", "CIWI2"),
))
@example((  # WI1 without WI3: the WI1 statements get no WI3 tag
    bench_shaped_premises(2, U4, 4, 10), U4, ("WI1", "WI2", "CIWI1", "CIWI2"),
))
@example((  # a premise equal to WI(∅, U | ∅), whose WI3 conclusions are the WI1 statements
    [statement("WI", (), (), U4), statement("CI", ("A",), ("B",), U4)], U4, axioms.ALL_RULES,
))
@example((  # the same premise without WI1: its WI3 expansion derives those statements
    [statement("WI", (), (), U4), statement("CI", ("A",), ("B",), U4)], U4,
    ("WI3", "CIWI1", "CIWI2"),
))
@example((  # a WI premise that is a WI3 conclusion of an earlier premise
    [statement("WI", ("A",), (), U4), statement("WI", ("A",), ("D",), U4),
     statement("CI", ("B",), ("A", "D"), U4)],
    U4,
    axioms.ALL_RULES,
))
@example((  # the same premises, the WI3 conclusion listed first
    [statement("WI", ("A",), ("D",), U4), statement("WI", ("A",), (), U4),
     statement("CI", ("B",), ("A", "D"), U4)],
    U4,
    axioms.ALL_RULES,
))
@settings(max_examples=150, deadline=None)
def test_closure_matches_naive(case):
    premises, names, rules = case
    indexed = closure(premises, names, rules)
    naive = oracles.naive_closure(premises, names, rules)
    assert indexed == naive
    assert indexed.to_json_dict() == naive.to_json_dict()
    assert set(indexed.derived_rules) <= indexed.statements


def test_closure_matches_naive_at_universe_6():
    # The shape of the bench's largest premise sets: universe 6, 40 premises.
    names = tuple("ABCDEF")
    premises = bench_shaped_premises(6, names, 16, 40)
    result = closure(premises, names)
    assert any(t.rule == "CIWI2" for t in result.traces)
    assert result == oracles.naive_closure(premises, names)


def test_closure_matches_naive_at_universe_6_without_wi1():
    # The same premises under WI3 without WI1: no WI3 tag comes in closed form.
    names = tuple("ABCDEF")
    premises = bench_shaped_premises(6, names, 16, 40)
    rules = ("WI3", "CIWI1", "CIWI2")
    result = closure(premises, names, rules)
    assert any(t.rule == "WI3" for t in result.traces)
    assert any(t.rule == "CIWI2" for t in result.traces)
    naive = oracles.naive_closure(premises, names, rules)
    assert result == naive
    assert result.to_json_dict() == naive.to_json_dict()


def test_closure_at_max_universe():
    names = tuple("ABCDEFGH")
    assert len(names) == axioms.MAX_UNIVERSE
    result = closure(bench_shaped_premises(8, names, 32, 80), names)
    assert any(t.rule == "CIWI2" for t in result.traces)
    assert all(replay_trace(t) for t in result.traces)
    assert oracles.missing_conclusions(result.statements, names) == []


def test_statement_display():
    assert statement("WI", ("A",), (), U3).display() == "WI(A ⊥ BC | ∅)"
    assert AxiomStatement("CI", fs("A"), fs("A", "B"), fs("B"), U4).display() == "CI(A ⊥ AB | B)"


def test_statement_json_round_trip():
    s = statement("WI", ("A",), ("B",), U4)
    assert statement_from_json(s.to_json_dict()) == s
    tagged = apply_ciwi1(statement("CI", ("A",), ("B",), U3))
    assert statement_from_json(tagged.to_json_dict()) == tagged


# ---------------------------------------------------------------------------
# soundness probe
# ---------------------------------------------------------------------------


def test_probe_deterministic():
    a = soundness_probe(3, 2, trials=8, seed=0)
    b = soundness_probe(3, 2, trials=8, seed=0)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    c = soundness_probe(3, 2, trials=8, seed=1)
    assert json.dumps(c.to_json_dict()) != json.dumps(a.to_json_dict())


def test_probe_zero_trials():
    report = soundness_probe(3, 2, trials=0, seed=0)
    assert report.evaluated == 0 and not report.violations


def test_probe_reflexivity_only():
    report = soundness_probe(3, 2, trials=25, seed=0, rules=("WI1",))
    assert not report.violations
    # Every reflexivity instance repairs to an empty left side.
    assert report.vacuous == report.evaluated > 0


def test_probe_augmentation_only():
    report = soundness_probe(3, 2, trials=100, seed=0, rules=("WI3",))
    assert report.violations == ()


def test_probe_unknown_rule():
    with pytest.raises(RuleShapeError):
        soundness_probe(3, 2, trials=0, seed=0, rules=("WI9",))
    generated = soundness_probe(3, 2, trials=4, seed=0, rules=(r for r in ("WI1", "WI3")))
    assert generated == soundness_probe(3, 2, trials=4, seed=0, rules=("WI1", "WI3"))


def test_probe_universe_bound_before_any_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built past the universe bound")

    monkeypatch.setattr(axioms, "random_joint_table", no_table)
    too_many = axioms.MAX_UNIVERSE + 1
    with pytest.raises(LimitError, match=f"universe of {too_many} variables exceeds"):
        soundness_probe(too_many, 2, trials=1, seed=0)


@pytest.mark.parametrize("variables, domain_size", [(1, 4097), (2, 65), (8, 3)])
def test_probe_domain_bound_before_any_table(monkeypatch, variables, domain_size):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built past the configuration bound")

    monkeypatch.setattr(axioms, "random_joint_table", no_table)
    assert domain_size ** variables > axioms.MAX_PROBE_CONFIGS
    with pytest.raises(LimitError, match=f"bound {axioms.MAX_PROBE_CONFIGS} on table"):
        soundness_probe(variables, domain_size, trials=1, seed=0)
    # The (variables, domain size) probes (3, 2), (4, 2) and (3, 3) stay inside.
    assert max(2**3, 2**4, 3**3) <= axioms.MAX_PROBE_CONFIGS


@pytest.mark.parametrize("variables, domain_size", [(3, 2), (4, 8)])
def test_probe_work_bound_before_any_table(monkeypatch, variables, domain_size):
    class Built(Exception):
        pass

    def no_table(*args, **kwargs):
        raise Built

    monkeypatch.setattr(axioms, "random_joint_table", no_table)
    per_trial = 2 * 3**variables * domain_size**variables
    inside = axioms.MAX_PROBE_WORK // per_trial
    with pytest.raises(Built):  # the guard lets the largest count through
        soundness_probe(variables, domain_size, trials=inside, seed=0)
    with pytest.raises(LimitError, match=f"bound {axioms.MAX_PROBE_WORK} on probe work"):
        soundness_probe(variables, domain_size, trials=inside + 1, seed=0)


@pytest.mark.parametrize("variables, trials, domain_size, message", [
    pytest.param(-1, 1, 2, "negative count", id="-1-1"),
    pytest.param(3, -5, 2, "negative count", id="3--5"),
    pytest.param(-2, -2, 2, "negative count", id="-2--2"),
    pytest.param(3, 0, -5, "domain size -5 is below 1", id="domain--5"),
    pytest.param(2, 1, -2, "domain size -2 is below 1", id="domain--2"),
    pytest.param(0, 1, 0, "domain size 0 is below 1", id="domain-0"),
    pytest.param(-1, 1, 0, "negative count", id="count-before-domain"),
])
def test_probe_negative_counts(monkeypatch, variables, trials, domain_size, message):
    monkeypatch.setattr(axioms, "random_joint_table", None)
    with pytest.raises(LimitError, match=message):
        soundness_probe(variables, domain_size, trials, seed=0)


def test_probe_reads_verdicts_by_membership(monkeypatch):
    """Each trial's verdicts agree with the checkers: every closure statement
    outside the holding set is degenerate, or fails when checked. A
    nondegenerate false statement added to the closure gives one violation
    per rule tagged on it, each noted ``direct``."""
    real_closure, real_table = axioms.closure, axioms.random_joint_table
    tables, added = [], []

    def table(*args):
        tables.append(real_table(*args))
        return tables[-1]

    def closure_plus_false(premises, universe, rules):
        premises = frozenset(premises)
        result = real_closure(premises, universe, rules)
        for stmt in result.ordered():
            if stmt not in premises:
                assert stmt.degenerate or not _holds(tables[-1], stmt)
        false = next(s for s in _canonical_statements(result.universe)
                     if s not in result.statements)
        assert not _holds(tables[-1], false)
        added.append(false)
        tags = {**result.derived_rules, false: frozenset({"WI3", "CIWI2"})}
        return axioms.ClosureResult(result.universe, result.statements | {false},
                                    result.traces, tags)

    monkeypatch.setattr(axioms, "random_joint_table", table)
    report = soundness_probe(3, 2, trials=4, seed=0)
    assert report.repaired == 0 and report.vacuous == report.evaluated > 0
    monkeypatch.setattr(axioms, "closure", closure_plus_false)
    patched = soundness_probe(3, 2, trials=4, seed=0)
    assert len(added) == 4
    assert patched.violations == tuple(
        axioms.ProbeViolation(trial, rule, stmt, "direct")
        for trial, stmt in enumerate(added) for rule in ("CIWI2", "WI3")
    )
    assert patched.evaluated == report.evaluated + 4
    assert patched.vacuous == report.vacuous and patched.repaired == 0
    docs = patched.to_json_dict()["violations"]
    assert [doc["display"] for doc in docs] == [v.statement.display() for v in patched.violations]


def _canonical_statements(universe):
    for kind in ("CI", "WI"):
        for roles in itertools.product("XZY", repeat=len(universe)):
            x = [n for n, r in zip(universe, roles) if r == "X"]
            z = [n for n, r in zip(universe, roles) if r == "Z"]
            if x and z:
                yield statement(kind, x, [n for n, r in zip(universe, roles) if r == "Y"],
                                universe)


def _holds(table, stmt):
    check = independence.check_ci if stmt.kind == "CI" else independence.check_wi
    return check(table, stmt.x, stmt.z, stmt.y).holds


@pytest.mark.parametrize("variables, trials", [(3, 100), (4, 10)])
def test_probe_same_with_naive_closure(monkeypatch, variables, trials):
    indexed = soundness_probe(variables, 2, trials, 0).to_json_dict()
    monkeypatch.setattr(axioms, "closure", oracles.naive_closure)
    assert soundness_probe(variables, 2, trials, 0).to_json_dict() == indexed
