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
the semantically holding statements, and reads each derived statement's
verdict off that set: the enumeration behind it has checked every canonical
nondegenerate CI and WI statement once. Violations are findings on the
literal rule readings and are reported, never suppressed.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, NamedTuple

from . import independence
from .errors import LimitError, RuleShapeError, StatementError
from .independence import MAX_UNIVERSE
from .tables import Table, random_joint_table

CI = "CI"
WI = "WI"

RULE_WI1 = "WI1"
RULE_WI2 = "WI2"
RULE_WI3 = "WI3"
RULE_CIWI1 = "CIWI1"
RULE_CIWI2 = "CIWI2"
ALL_RULES = (RULE_WI1, RULE_WI2, RULE_WI3, RULE_CIWI1, RULE_CIWI2)

MAX_PROBE_CONFIGS = 4096  # domain_size ** variables of one probe table
MAX_PROBE_WORK = 2_000_000  # trials × 2·3^variables statements × configurations


def _names(values: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(values)))


class _AxiomFields(NamedTuple):
    kind: str
    x: frozenset[str]
    z: frozenset[str]
    y: frozenset[str]
    universe: tuple[str, ...]


class AxiomStatement(_AxiomFields):
    """kind(x independent of z given y) over a fixed universe.

    A tuple of its fields that checks them when built. It is unequal to any
    object of another class, on either side of ``==``, except one of a tuple
    subclass unrelated to it on the left, whose own tuple comparison runs
    first. The hash is the tuple's, computed in C.
    """

    __slots__ = ()

    def __new__(cls, kind: str, x: frozenset[str], z: frozenset[str], y: frozenset[str],
                universe: tuple[str, ...]) -> "AxiomStatement":
        if kind not in (CI, WI):
            raise StatementError(f"unknown statement kind {kind!r}")
        u = set(universe)
        if not (set(x) <= u and set(z) <= u and set(y) <= u):
            raise StatementError("statement mentions variables outside its universe")
        return tuple.__new__(cls, (kind, x, z, y, universe))

    @classmethod
    def _built(cls, kind: str, x: frozenset[str], z: frozenset[str], y: frozenset[str],
               universe: tuple[str, ...]) -> "AxiomStatement":
        """A statement from parts already checked, skipping ``__new__``'s checks.

        The caller guarantees what it would check: ``kind`` is ``CI`` or ``WI``,
        and ``x``, ``z`` and ``y`` are frozensets of names in ``universe``.
        """
        return tuple.__new__(cls, (kind, x, z, y, universe))

    # Not ``NotImplemented``: a plain tuple's comparison would then run, and match.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

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


class DerivationTrace(NamedTuple):
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


class ClosureResult(NamedTuple):
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
) -> ClosureResult:
    """Least fixed point of the rule set over the canonical statement space.

    Conclusions are canonicalized before insertion, which keeps the space
    finite (two kinds times three roles per variable); the literal forms and
    any repairs live in the traces. The engine derives over integer masks,
    bit i standing for the i-th name of the sorted universe: a statement is
    the key (kind, X, Z, Y), a conclusion is mask arithmetic, and its repair
    clears Y's bits from X and Z. Statement and trace objects are built only
    for keys not seen before, always over the sorted universe (premises are
    rebuilt over it), so the keys of ``derived_rules`` lie in ``statements``.

    WI1 and WI2 run in closed form: every WI1 literal WI(X, U - Y | Y) with
    X ⊆ Y repairs to WI(∅, U - Y | Y), the one applied, and both WI2
    conclusions on a popped WI(X, Z | Y) repair back to it, so WI2 only tags it.

    WI3 runs semi-naively: a popped WI statement already tagged WI3 is not
    expanded. Its tag came from expanding some WI(X, Z' | Y'), of which it is
    WI(X, Z' - W | Y' ∪ W), and each of its own WI3 conclusions is one of that
    statement's, so all of them are in the closure and tagged already. With
    WI1 active, each WI1 statement is tagged WI3 as it is seeded: together they
    are the WI3 conclusions of WI(∅, U | ∅), itself a WI1 statement, so the tags
    are those its expansion would add, and no WI1 statement is expanded.

    CIWI2 runs semi-naively: its premises are fixed by a split (X, Z1, Z2,
    Y) of the universe, so each popped statement enumerates the subsets of
    its Y and looks up the other two premises among the popped canonical
    statements, indexed by (X, Z): at most 2·2^|Y| lookups per pop, not a
    scan of all WI×CI (or WI×WI) pairs. Subsets come by size, then by name,
    as the literal rules enumerate them, and matches fire in the scan's
    order, so the traces equal those of the naive evaluation. On canonical
    keys each match already has ``apply_ciwi2``'s shape: a premise WI(X, Z2 | Y1)
    found with WI(X, Z1 | ·), Z1 ⊆ Y1, and CI(Z1 ⊥ Z2 | ·) concludes
    WI(X, Z1 ∪ Z2 | Y1 - Z1), inserted as found.
    """
    u = _names(universe)
    if len(u) > MAX_UNIVERSE:
        raise LimitError(f"universe of {len(u)} variables exceeds bound {MAX_UNIVERSE}")
    active = _active_rules(rules)
    full = (1 << len(u)) - 1
    bit = {name: 1 << i for i, name in enumerate(u)}
    names = [tuple(n for n in u if bit[n] & mask) for mask in range(full + 1)]
    sets = [frozenset(n) for n in names]
    order = sorted(range(full + 1), key=lambda mask: (len(names[mask]), names[mask]))
    subsets: dict[int, list[int]] = {}

    def subsets_of(mask: int) -> list[int]:
        if mask not in subsets:
            subsets[mask] = [w for w in order if not w & ~mask]
        return subsets[mask]

    def build(key: tuple) -> AxiomStatement:
        kind, x, z, y = key
        return AxiomStatement._built(kind, sets[x], sets[z], sets[y], u)

    known: dict[tuple, AxiomStatement] = {}
    tags: dict[tuple, set[str]] = {}
    traces: list[DerivationTrace] = []
    worklist: deque[tuple] = deque()

    def insert(literal: tuple, rule: str, rule_premises: tuple, inst: tuple) -> None:
        kind, x, z, y = literal
        key = (kind, x & ~y, z & ~y, y)
        tagged = tags.get(key)
        if tagged is not None:  # every tagged key is known
            tagged.add(rule)
            return
        tags[key] = {rule}
        if key in known:
            return
        fixed = known[key] = build(key)
        traces.append(DerivationTrace(
            fixed, fixed if key == literal else build(literal), rule,
            tuple(known[p] for p in rule_premises),
            tuple((label, names[mask]) for label, mask in inst), names[(x | z) & y],
        ))
        worklist.append(key)

    for premise in premises:
        if set(premise.universe) != set(u):
            raise StatementError("premise universe does not match the closure universe")
        parts = (premise.x, premise.z, premise.y)
        key = (premise.kind, *(sum(bit[n] for n in part) for part in parts))
        if key not in known:
            known[key] = premise if premise.universe == u else build(key)
            worklist.append(key)

    if RULE_WI1 in active:
        for y in subsets_of(full):
            key = (WI, 0, full & ~y, y)
            insert(key, RULE_WI1, (), (("X", 0), ("Y", y)))
            if RULE_WI3 in active:  # the WI3 conclusions of WI(∅, U | ∅)
                tags[key].add(RULE_WI3)

    # (X, Z) -> (pop position, key) for the popped canonical statements
    wi_index: dict[tuple[int, int], tuple[int, tuple]] = {}
    ci_index: dict[tuple[int, int], tuple[int, tuple]] = {}

    while worklist:
        current = worklist.popleft()
        kind, x, z, y = current
        if x & y or z & y or x & z or x | z | y != full:
            continue  # not canonical
        found: list[tuple[tuple, tuple]] = []  # (scan order, CIWI2 split and premises)
        if kind == WI:
            wi_index[x, z] = (len(wi_index), current)
            expanded = RULE_WI3 in tags.get(current, ())
            if RULE_WI2 in active:
                tags.setdefault(current, set()).add(RULE_WI2)
            if RULE_WI3 in active and not expanded:
                for w in subsets_of(z):
                    insert((WI, x, z & ~w, y | w), RULE_WI3, (current,), (("W", w),))
            if RULE_CIWI2 in active:
                # The partner is WI(X, Z') for Z' ⊆ Y: the second premise with
                # CI(Z' ⊥ Z), or the first with CI(Z ⊥ Z'). Both share one CI
                # premise only if Z' = Z = ∅, the partner then being current.
                for w in subsets_of(y):
                    if (x, w) not in wi_index:
                        continue
                    pos, other = wi_index[x, w]
                    if (w, z) in ci_index:
                        ci_pos, ci = ci_index[w, z]
                        found.append(((pos, ci_pos), (x, w, z, y & ~w, (current, other, ci))))
                    if (z, w) in ci_index and other != current:
                        ci_pos, ci = ci_index[z, w]
                        found.append(((pos, ci_pos), (x, z, w, y & ~w, (other, current, ci))))
        else:
            ci_index[x, z] = (len(ci_index), current)
            if RULE_CIWI1 in active:
                insert((WI, y, z, y), RULE_CIWI1, (current,), ())
            if RULE_CIWI2 in active:
                for w in subsets_of(y):
                    if (w, z) in wi_index and (w, x) in wi_index:
                        pos_a, a = wi_index[w, z]
                        pos_b, b = wi_index[w, x]
                        found.append(((pos_a, pos_b), (w, x, z, y & ~w, (a, b, current))))
        for _, (left, z1, z2, given, triple) in sorted(found, key=lambda c: c[0]):
            insert((WI, left, z1 | z2, given), RULE_CIWI2, triple, (("Z1", z1), ("Z2", z2)))

    derived_rules = {known[key]: frozenset(tagged) for key, tagged in tags.items()}
    return ClosureResult(u, frozenset(known.values()), tuple(traces), derived_rules)


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
    if not isinstance(kind, str):
        raise StatementError("statement field 'kind' must be a string")
    z = doc.get("Z")
    fields = {"X": x, "Y": y, "universe": universe, "Z": [] if z is None else z}
    for key, names in fields.items():
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise StatementError(f"statement field {key!r} must be a list of names")
    return statement(kind, x, y, universe, z)


# ---------------------------------------------------------------------------
# semantic statements and the soundness probe
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


class ProbeViolation(NamedTuple):
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


class ProbeReport(NamedTuple):
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
    """Empirically probe the rules: derive from true statements, check the rest.

    For each random joint table, the semantically holding statements are
    closed under the selected rules. Their enumeration has checked every
    canonical nondegenerate CI and WI statement, and every nondegenerate
    closure statement is canonical, so a derived statement outside that set
    fails, unless it is degenerate (an empty independent set), which is
    vacuously true. Closure statements are already repaired, so ``repaired``
    is always 0. The report is deterministic for a fixed seed. A count or seed
    that is not an ``int`` (a ``bool`` is not), a negative ``variables`` or
    ``trials``, a ``domain_size`` below 1, a universe past ``MAX_UNIVERSE``,
    tables of more than ``MAX_PROBE_CONFIGS`` configurations, or more than
    ``MAX_PROBE_WORK`` statement checks over one configuration each (a trial
    checks at most 2·3^variables statements) raise ``LimitError`` at once.
    """
    for name, count in zip(("variables", "domain_size", "trials", "seed"),
                           (variables, domain_size, trials, seed)):
        if type(count) is not int:  # refuses a bool
            raise LimitError(f"{name} must be an integer, not {count!r}")
    if variables < 0 or trials < 0:
        raise LimitError(f"negative count: {variables} variables, {trials} trials")
    if domain_size < 1:
        raise LimitError(f"domain size {domain_size} is below 1")
    if variables > MAX_UNIVERSE:
        raise LimitError(f"universe of {variables} variables exceeds bound {MAX_UNIVERSE}")
    configs = domain_size ** variables
    if configs > MAX_PROBE_CONFIGS:
        limit = f"bound {MAX_PROBE_CONFIGS} on table configurations"
        raise LimitError(f"{domain_size}^{variables} exceeds {limit}")
    statements = 2 * 3 ** variables
    if trials * statements * configs > MAX_PROBE_WORK:
        work = f"{trials} trials × {statements} statements × {configs} configurations"
        raise LimitError(f"{work} exceeds bound {MAX_PROBE_WORK} on probe work")
    import random  # on first use, so that importing the package does not load it

    active = _active_rules(rules)
    rng = random.Random(seed)
    names = [chr(ord("A") + i) for i in range(variables)]
    evaluated = 0
    vacuous = 0
    violations: list[ProbeViolation] = []
    for trial in range(trials):
        table = random_joint_table(rng, [(n, domain_size) for n in names])
        true_set = semantic_statements(table)
        result = closure(true_set, names, active)
        for stmt in result.ordered():
            if stmt in true_set:
                continue
            evaluated += 1
            if stmt.degenerate:
                vacuous += 1
                continue
            for rule in sorted(result.derived_rules.get(stmt, ())):
                violations.append(ProbeViolation(trial, rule, stmt, "direct"))
    return ProbeReport(trials, variables, domain_size, seed, active, evaluated, 0, vacuous,
                       tuple(violations))
