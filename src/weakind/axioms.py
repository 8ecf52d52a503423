"""Executable inference rules over nonembedded independence statements.

A statement relates two variable sets given a third, all drawn from one
fixed universe. The rule functions return the literal conclusions of the
five inference rules, which may be degenerate (an empty independent set) or
non-disjoint (a variable on both sides); such statements are kept as
written and flagged. The closure engine chains over the canonical
nonembedded statement space, so every conclusion is canonicalized (overlap
with the conditioning set removed) before insertion, and each derivation
trace records both the literal conclusion and its canonical form.

The soundness probe generates random joint tables, computes the closure of
the semantically holding statements, and re-checks every derived statement
against the semantic checkers. Violations are findings on the literal rule
readings and are reported, never suppressed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from . import independence
from .errors import LimitError, RuleShapeError, StatementError
from .tables import Table, random_joint_table

CI = "CI"
WI = "WI"

RULE_WI1 = "WI1"
RULE_WI2 = "WI2"
RULE_WI3 = "WI3"
RULE_CIWI1 = "CIWI1"
RULE_CIWI2 = "CIWI2"
ALL_RULES = (RULE_WI1, RULE_WI2, RULE_WI3, RULE_CIWI1, RULE_CIWI2)

MAX_UNIVERSE = 8


def _names(values: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(values)))


@dataclass(frozen=True)
class AxiomStatement:
    """kind(x independent of z given y) over a fixed universe."""

    kind: str
    x: frozenset[str]
    z: frozenset[str]
    y: frozenset[str]
    universe: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in (CI, WI):
            raise StatementError(f"unknown statement kind {self.kind!r}")
        u = set(self.universe)
        if not (set(self.x) <= u and set(self.z) <= u and set(self.y) <= u):
            raise StatementError("statement mentions variables outside its universe")

    @property
    def degenerate(self) -> bool:
        return not self.x or not self.z

    @property
    def non_disjoint(self) -> bool:
        return bool(self.x & self.y or self.z & self.y or self.x & self.z)

    @property
    def canonical(self) -> bool:
        """Pairwise disjoint sets that cover the universe."""
        return (
            not self.non_disjoint
            and self.x | self.z | self.y == set(self.universe)
        )

    def display(self) -> str:
        def fmt(s: frozenset[str]) -> str:
            return "".join(sorted(s)) if s else "∅"

        return f"{self.kind}({fmt(self.x)} ⊥ {fmt(self.z)} | {fmt(self.y)})"

    def key(self) -> tuple:
        return (
            self.kind,
            tuple(sorted(self.x)),
            tuple(sorted(self.z)),
            tuple(sorted(self.y)),
        )

    def to_json_dict(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "X": sorted(self.x),
            "Y": sorted(self.y),
            "universe": list(self.universe),
        }
        if not self.canonical:
            doc["Z"] = sorted(self.z)
        return doc


def statement(
    kind: str,
    x: Iterable[str],
    y: Iterable[str],
    universe: Iterable[str],
    z: Iterable[str] | None = None,
) -> AxiomStatement:
    """Build a statement; the second independent set defaults to U - X - Y."""
    u = _names(universe)
    xs = frozenset(x)
    ys = frozenset(y)
    zs = frozenset(z) if z is not None else frozenset(u) - xs - ys
    return AxiomStatement(kind, xs, zs, ys, u)


def repair(stmt: AxiomStatement) -> tuple[AxiomStatement, tuple[str, ...]]:
    """Remove overlap between the independent sets and the conditioning set.

    Returns the canonicalized statement and the removed variables. This is
    the documented convention for reading the rules' literal non-disjoint
    conclusions; the removal is recorded wherever a repair happens.
    """
    removed = (stmt.x & stmt.y) | (stmt.z & stmt.y)
    fixed = AxiomStatement(
        stmt.kind, stmt.x - stmt.y, stmt.z - stmt.y, stmt.y, stmt.universe
    )
    return fixed, tuple(sorted(removed))


# ---------------------------------------------------------------------------
# the five rules, literal forms
# ---------------------------------------------------------------------------


def _require_canonical(premise: AxiomStatement, kind: str, rule: str) -> None:
    if premise.kind != kind:
        raise RuleShapeError(f"{rule} requires a {kind} premise")
    if not premise.canonical:
        raise RuleShapeError(f"{rule} premise is not in canonical shape")


def apply_wi1(
    universe: Iterable[str], x: Iterable[str], y: Iterable[str]
) -> AxiomStatement:
    """Reflexivity: the variables in y determine any x inside y."""
    u = _names(universe)
    xs, ys = frozenset(x), frozenset(y)
    if not (xs <= ys <= set(u)):
        raise RuleShapeError("reflexivity requires X ⊆ Y ⊆ universe")
    return AxiomStatement(WI, xs, frozenset(u) - ys, ys, u)


def apply_wi2(
    premise: AxiomStatement, w: Iterable[str]
) -> tuple[AxiomStatement, AxiomStatement]:
    """Transport: move a subset of the conditioning set across the statement."""
    _require_canonical(premise, WI, RULE_WI2)
    ws = frozenset(w)
    if not ws <= premise.y:
        raise RuleShapeError("transport requires W ⊆ Y")
    u = frozenset(premise.universe)
    first = AxiomStatement(
        WI,
        premise.x - ws,
        u - premise.x - (premise.y - ws),
        premise.y,
        premise.universe,
    )
    second = AxiomStatement(
        WI,
        premise.x | ws,
        u - premise.x - premise.y - ws,
        premise.y,
        premise.universe,
    )
    return first, second


def apply_wi3(premise: AxiomStatement, w: Iterable[str]) -> AxiomStatement:
    """Augmentation: move variables from the right side into the conditioning set."""
    _require_canonical(premise, WI, RULE_WI3)
    ws = frozenset(w)
    if ws & premise.x:
        raise RuleShapeError("augmentation set overlaps X")
    if not ws <= premise.z:
        raise RuleShapeError("augmentation requires W ⊆ U - X - Y")
    return AxiomStatement(
        WI, premise.x, premise.z - ws, premise.y | ws, premise.universe
    )


def apply_ciwi1(premise: AxiomStatement) -> AxiomStatement:
    """Weaken: a strong statement yields a weak one with Y on both sides."""
    _require_canonical(premise, CI, RULE_CIWI1)
    return AxiomStatement(WI, premise.y, premise.z, premise.y, premise.universe)


def apply_ciwi2(
    p1: AxiomStatement, p2: AxiomStatement, p3: AxiomStatement
) -> AxiomStatement:
    """Transitivity: combine two weak statements and one strong statement."""
    for p in (p1, p2):
        _require_canonical(p, WI, RULE_CIWI2)
    _require_canonical(p3, CI, RULE_CIWI2)
    if not (p1.universe == p2.universe == p3.universe):
        raise RuleShapeError("premises range over different universes")
    x = p1.x
    if p2.x != x:
        raise RuleShapeError("the weak premises must share their left set")
    z2, z1 = p1.z, p2.z
    if not z1 <= p1.y:
        raise RuleShapeError("no unifying split of the conditioning sets")
    y = p1.y - z1
    if p2.y != y | z2:
        raise RuleShapeError("second weak premise has the wrong conditioning set")
    if p3.x != z1 or p3.z != z2 or p3.y != y | x:
        raise RuleShapeError("strong premise does not match the unified split")
    return AxiomStatement(WI, x, z1 | z2, y, p1.universe)


# ---------------------------------------------------------------------------
# forward-chaining closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivationTrace:
    statement: AxiomStatement  # canonical form inserted into the closure
    literal: AxiomStatement  # the rule's literal conclusion
    rule: str
    premises: tuple[AxiomStatement, ...]
    instantiation: tuple[tuple[str, tuple[str, ...]], ...]
    repaired: tuple[str, ...]  # variables removed by canonicalization

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement.to_json_dict(),
            "literal": self.literal.to_json_dict(),
            "rule": self.rule,
            "premises": [p.to_json_dict() for p in self.premises],
            "instantiation": {k: list(v) for k, v in self.instantiation},
            "repaired": list(self.repaired),
        }


@dataclass(frozen=True)
class ClosureResult:
    universe: tuple[str, ...]
    statements: frozenset[AxiomStatement]
    traces: tuple[DerivationTrace, ...]
    derived_rules: Mapping[AxiomStatement, frozenset[str]]

    def ordered(self) -> tuple[AxiomStatement, ...]:
        return tuple(sorted(self.statements, key=lambda s: s.key()))

    def to_json_dict(self) -> dict:
        return {
            "universe": list(self.universe),
            "statements": [s.to_json_dict() for s in self.ordered()],
            "traces": [t.to_json_dict() for t in self.traces],
        }


def replay_trace(trace: DerivationTrace) -> bool:
    """Re-apply the trace's rule to its premises and compare conclusions."""
    inst = {k: v for k, v in trace.instantiation}
    if trace.rule == RULE_WI1:
        literal = apply_wi1(trace.statement.universe, inst["X"], inst["Y"])
    elif trace.rule == RULE_WI2:
        pair = apply_wi2(trace.premises[0], inst["W"])
        literal = pair[0] if inst["branch"] == ("first",) else pair[1]
    elif trace.rule == RULE_WI3:
        literal = apply_wi3(trace.premises[0], inst["W"])
    elif trace.rule == RULE_CIWI1:
        literal = apply_ciwi1(trace.premises[0])
    elif trace.rule == RULE_CIWI2:
        literal = apply_ciwi2(*trace.premises)
    else:
        raise RuleShapeError(f"unknown rule {trace.rule!r}")
    if literal != trace.literal:
        return False
    fixed, removed = repair(literal)
    return fixed == trace.statement and removed == trace.repaired


def _subsets(values: frozenset[str]) -> Iterable[tuple[str, ...]]:
    ordered = sorted(values)
    for size in range(len(ordered) + 1):
        yield from combinations(ordered, size)


def _active_rules(rules: Iterable[str]) -> tuple[str, ...]:
    """The requested rules in canonical order, reading ``rules`` once."""
    requested = set(rules)
    unknown = requested - set(ALL_RULES)
    if unknown:
        raise RuleShapeError(f"unknown rules: {sorted(unknown)}")
    return tuple(r for r in ALL_RULES if r in requested)


def closure(
    premises: Iterable[AxiomStatement],
    universe: Iterable[str],
    rules: Iterable[str] = ALL_RULES,
    max_universe: int = MAX_UNIVERSE,
) -> ClosureResult:
    """Least fixed point of the rule set over the canonical statement space.

    Conclusions are canonicalized before insertion, which keeps the space
    finite (two kinds times three roles per variable); the literal forms and
    any repairs live in the traces.

    Two rules are evaluated in closed form because their repaired
    conclusions are known in advance. Every WI1 literal WI(X, U - Y | Y)
    with X ⊆ Y repairs to WI(∅, U - Y | Y), so only X = ∅ is applied, which
    is the first X a full enumeration would insert. WI2 on a popped
    canonical WI(X, Z | Y) gives WI(X, Z ∪ W | Y) and WI(X ∪ W, Z | Y) for
    each W ⊆ Y, and both repair back to the popped statement, so WI2 only
    adds its tag to that statement's derived rules.

    CIWI2 runs semi-naively: its premises are fixed by a split (X, Z1, Z2,
    Y) of the universe, so each popped statement enumerates the subsets of
    its Y and looks up the other two premises among the popped canonical
    statements, indexed by (X, Z). That is at most 2·2^|Y| lookups per pop,
    not a scan of all WI×CI (or WI×WI) pairs. Matches fire in that scan's
    order, so the traces equal those of a naive evaluation.
    """
    u = _names(universe)
    if len(u) > max_universe:
        raise LimitError(f"universe of {len(u)} variables exceeds bound {max_universe}")
    active = _active_rules(rules)

    known: dict[tuple, AxiomStatement] = {}
    traces: list[DerivationTrace] = []
    derived_rules: dict[AxiomStatement, set[str]] = {}
    worklist: deque[AxiomStatement] = deque()

    def insert(
        literal: AxiomStatement,
        rule: str,
        rule_premises: tuple[AxiomStatement, ...],
        instantiation: tuple[tuple[str, tuple[str, ...]], ...],
    ) -> None:
        fixed, removed = repair(literal)
        derived_rules.setdefault(fixed, set()).add(rule)
        if fixed.key() in known:
            return
        known[fixed.key()] = fixed
        traces.append(
            DerivationTrace(fixed, literal, rule, rule_premises, instantiation, removed)
        )
        worklist.append(fixed)

    for premise in premises:
        if set(premise.universe) != set(u):
            raise StatementError("premise universe does not match the closure universe")
        if premise.key() not in known:
            known[premise.key()] = premise
            worklist.append(premise)

    if RULE_WI1 in active:
        # Every X ⊆ Y repairs to WI(∅, U - Y | Y); X = ∅ comes first.
        for y in _subsets(frozenset(u)):
            insert(apply_wi1(u, (), y), RULE_WI1, (), (("X", ()), ("Y", y)))

    # (X, Z) -> (pop position, statement) for the popped canonical statements
    wi_index: dict[tuple, tuple[int, AxiomStatement]] = {}
    ci_index: dict[tuple, tuple[int, AxiomStatement]] = {}

    def fire_ciwi2(
        a: AxiomStatement, b: AxiomStatement, c: AxiomStatement
    ) -> None:
        try:
            literal = apply_ciwi2(a, b, c)
        except RuleShapeError:
            return
        insert(
            literal,
            RULE_CIWI2,
            (a, b, c),
            (("Z1", tuple(sorted(b.z))), ("Z2", tuple(sorted(a.z)))),
        )

    while worklist:
        current = worklist.popleft()
        if not current.canonical:
            continue
        found: list[tuple[tuple, tuple]] = []  # (scan order, CIWI2 premises)
        if current.kind == WI:
            wi_index[current.x, current.z] = (len(wi_index), current)
            if RULE_WI2 in active:
                # Both conclusions for every W ⊆ Y repair back to current.
                derived_rules.setdefault(current, set()).add(RULE_WI2)
            if RULE_WI3 in active:
                for w in _subsets(current.z):
                    literal = apply_wi3(current, w)
                    insert(literal, RULE_WI3, (current,), (("W", w),))
            if RULE_CIWI2 in active:
                # The partner is WI(X, Z) for Z ⊆ Y: the second premise with
                # CI(Z ⊥ current.z), or the first premise with CI(current.z ⊥ Z).
                # Both share one CI premise only if Z = current.z = ∅, where
                # the partner is current itself, so the sort keys are unique.
                for w in _subsets(current.y):
                    z = frozenset(w)
                    if (current.x, z) not in wi_index:
                        continue
                    pos, other = wi_index[current.x, z]
                    if (z, current.z) in ci_index:
                        ci_pos, ci = ci_index[z, current.z]
                        found.append(((pos, ci_pos), (current, other, ci)))
                    if (current.z, z) in ci_index and other is not current:
                        ci_pos, ci = ci_index[current.z, z]
                        found.append(((pos, ci_pos), (other, current, ci)))
        else:
            ci_index[current.x, current.z] = (len(ci_index), current)
            if RULE_CIWI1 in active:
                literal = apply_ciwi1(current)
                insert(literal, RULE_CIWI1, (current,), ())
            if RULE_CIWI2 in active:
                for w in _subsets(current.y):
                    x = frozenset(w)
                    if (x, current.z) in wi_index and (x, current.x) in wi_index:
                        pos_a, a = wi_index[x, current.z]
                        pos_b, b = wi_index[x, current.x]
                        found.append(((pos_a, pos_b), (a, b, current)))
        for _, triple in sorted(found, key=lambda c: c[0]):
            fire_ciwi2(*triple)

    return ClosureResult(
        u,
        frozenset(known.values()),
        tuple(traces),
        {k: frozenset(v) for k, v in derived_rules.items()},
    )


# ---------------------------------------------------------------------------
# premise files
# ---------------------------------------------------------------------------


def statement_from_json(doc: Mapping) -> AxiomStatement:
    try:
        kind = doc["kind"]
        x = doc["X"]
        y = doc["Y"]
        universe = doc["universe"]
    except (KeyError, TypeError) as exc:
        raise StatementError(f"malformed statement document: {exc}") from exc
    z = doc.get("Z")
    fields = {"X": x, "Y": y, "universe": universe, "Z": [] if z is None else z}
    for key, names in fields.items():
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise StatementError(f"statement field {key!r} must be a list of names")
    return statement(kind, x, y, universe, z)


# ---------------------------------------------------------------------------
# semantic evaluation and the soundness probe
# ---------------------------------------------------------------------------


def semantic_statements(table: Table) -> frozenset[AxiomStatement]:
    """All canonical CI and WI statements that hold semantically in a table."""
    names = sorted(table.schema.names)
    out: set[AxiomStatement] = set()
    for verdict in independence.enumerate_statements(table, (CI, WI)).verdicts:
        if not verdict.holds:
            continue
        s = verdict.statement
        out.add(statement(s.kind, s.x, s.y, names))
    return frozenset(out)


def semantic_eval(
    table: Table, stmt: AxiomStatement
) -> tuple[bool, str]:
    """Check a canonical statement against the table.

    Degenerate statements (an empty independent set) are vacuously true by
    convention: with nothing to vary on one side, the defining conditions
    impose no constraint. The note records how the verdict was reached.
    """
    fixed, removed = repair(stmt)
    note = f"repaired:{','.join(removed)}" if removed else "direct"
    if fixed.degenerate:
        return True, note + ";degenerate-vacuous"
    if fixed.kind == CI:
        verdict = independence.check_ci(table, fixed.x, fixed.z, fixed.y)
    else:
        verdict = independence.check_wi(table, fixed.x, fixed.z, fixed.y)
    return verdict.holds, note


@dataclass(frozen=True)
class ProbeViolation:
    trial: int
    rule: str
    statement: AxiomStatement
    note: str

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "rule": self.rule,
            "statement": self.statement.to_json_dict(),
            "display": self.statement.display(),
            "note": self.note,
        }


@dataclass(frozen=True)
class ProbeReport:
    trials: int
    variables: int
    domain_size: int
    seed: int
    rules: tuple[str, ...]
    evaluated: int
    repaired: int
    vacuous: int
    violations: tuple[ProbeViolation, ...]

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "variables": self.variables,
            "domain_size": self.domain_size,
            "seed": self.seed,
            "rules": list(self.rules),
            "evaluated": self.evaluated,
            "repaired": self.repaired,
            "vacuous": self.vacuous,
            "violations": [v.to_json_dict() for v in self.violations],
            "violation_count": len(self.violations),
        }


def soundness_probe(
    variables: int = 3,
    domain_size: int = 2,
    trials: int = 100,
    seed: int = 0,
    rules: Iterable[str] = ALL_RULES,
) -> ProbeReport:
    """Empirically probe the rules: derive from true statements, re-check all.

    For each random joint table, the semantically holding statements are
    closed under the selected rules and every derived statement is evaluated
    semantically (after the documented repair for tagged forms). The report
    is deterministic for a fixed seed.
    """
    active = _active_rules(rules)
    rng = random.Random(seed)
    names = [chr(ord("A") + i) for i in range(variables)]
    evaluated = 0
    repaired = 0
    vacuous = 0
    violations: list[ProbeViolation] = []
    for trial in range(trials):
        table = random_joint_table(rng, [(n, domain_size) for n in names])
        true_set = semantic_statements(table)
        result = closure(true_set, names, active)
        for stmt in result.ordered():
            if stmt in true_set:
                continue
            holds, note = semantic_eval(table, stmt)
            evaluated += 1
            if note.startswith("repaired:"):
                repaired += 1
            if note.endswith("degenerate-vacuous"):
                vacuous += 1
            if not holds:
                for rule in sorted(result.derived_rules.get(stmt, ())):
                    violations.append(ProbeViolation(trial, rule, stmt, note))
    return ProbeReport(
        trials,
        variables,
        domain_size,
        seed,
        active,
        evaluated,
        repaired,
        vacuous,
        tuple(violations),
    )
