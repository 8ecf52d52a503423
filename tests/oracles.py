"""Brute-force reference implementations used only as test oracles.

Everything here recomputes results from first principles with naive
enumeration: explicit pair sets built by double loops, composition by
triple loops, connected components by traversal, and conditionals by
direct summation over table rows. The package's partition machinery is
deliberately not used, so agreement between the two paths is meaningful.

The closure references reuse the package's literal rule functions but none
of its fixed-point machinery: ``naive_closure`` tries every premise pair or
triple for CIWI2, and ``missing_conclusions`` checks closedness by key
lookups over a finished statement set.
"""

from fractions import Fraction
from itertools import combinations

from weakind.axioms import (
    ALL_RULES,
    CI,
    MAX_UNIVERSE,
    RULE_CIWI1,
    RULE_CIWI2,
    RULE_WI1,
    RULE_WI2,
    RULE_WI3,
    WI,
    AxiomStatement,
    ClosureResult,
    DerivationTrace,
    apply_ciwi1,
    apply_ciwi2,
    apply_wi1,
    apply_wi2,
    apply_wi3,
    repair,
)
from weakind.errors import LimitError, RuleShapeError, StatementError

ZERO = Fraction(0)


def agree_pairs(rows, positions):
    """Ordered index pairs whose configs agree on the given positions."""
    n = len(rows)
    pairs = set()
    for i in range(n):
        for j in range(n):
            if all(rows[i][p] == rows[j][p] for p in positions):
                pairs.add((i, j))
    return pairs


def partition_pairs(blocks):
    """A partition's blocks as an equivalence relation (ordered pair set)."""
    return {(i, j) for block in blocks for i in block for j in block}


def compose_pairs(p_pairs, q_pairs, n):
    out = set()
    for i in range(n):
        for j in range(n):
            if (i, j) not in p_pairs:
                continue
            for k in range(n):
                if (j, k) in q_pairs:
                    out.add((i, k))
    return out


def components(pairs, n):
    adj = {i: set() for i in range(n)}
    for i, k in pairs:
        adj[i].add(k)
        adj[k].add(i)
    seen: set[int] = set()
    out = []
    for start in range(n):
        if start in seen:
            continue
        comp: set[int] = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        seen |= comp
        out.append(frozenset(comp))
    return sorted(out, key=min)


def join_partition(blocks_a, blocks_b, n):
    """Transitive-closure join of two partitions, as canonical blocks."""
    pairs = partition_pairs(blocks_a) | partition_pairs(blocks_b)
    return tuple(components(pairs, n))


def _positions(table, names):
    schema_names = table.schema.names
    return [schema_names.index(v) for v in names]


def _matches(config, positions, wanted):
    return all(config[p] == w for p, w in zip(positions, wanted))


def _mass(table, positions, wanted):
    total = ZERO
    for config, value in table.rows.items():
        if _matches(config, positions, wanted):
            total += value
    return total


def cond_oracle(table, x_map, g_map):
    """P(x | g) for a joint table by direct summation; None when undefined."""
    g_pos = _positions(table, list(g_map))
    g_vals = list(g_map.values())
    pg = _mass(table, g_pos, g_vals)
    if pg == 0:
        return None
    both_pos = g_pos + _positions(table, list(x_map))
    both_vals = g_vals + list(x_map.values())
    return _mass(table, both_pos, both_vals) / pg


def ci_oracle(table, x_vars, z_vars, y_vars):
    """Strong conditional independence on a joint table, direct enumeration."""
    schema = table.schema
    for y_cfg in schema.configs(y_vars):
        y_map = dict(zip(y_vars, y_cfg))
        for z_cfg in schema.configs(z_vars):
            z_map = dict(zip(z_vars, z_cfg))
            yz_map = {**y_map, **z_map}
            if table.partial_mass(yz_map) == 0:
                continue
            for x_cfg in schema.configs(x_vars):
                x_map = dict(zip(x_vars, x_cfg))
                lhs = cond_oracle(table, x_map, yz_map)
                rhs = cond_oracle(table, x_map, y_map)
                if lhs != rhs:
                    return False
    return True


def _class_ci(table, rows, block, x_vars, y_vars, z_vars):
    """Class-restricted check: conditionals constant across the class's z-values."""
    x_pos = _positions(table, x_vars)
    y_pos = _positions(table, y_vars)
    z_pos = _positions(table, z_vars)
    xs = sorted({tuple(rows[i][p] for p in x_pos) for i in block})
    ys = sorted({tuple(rows[i][p] for p in y_pos) for i in block})
    zs = sorted({tuple(rows[i][p] for p in z_pos) for i in block})
    assert len(ys) == 1
    y_map = dict(zip(y_vars, ys[0]))
    joint = table.kind == "joint"
    if joint:
        block_mass = sum((table.rows[rows[i]] for i in block), ZERO)
    for x_cfg in xs:
        x_map = dict(zip(x_vars, x_cfg))
        values = []
        for z_cfg in zs:
            z_map = dict(zip(z_vars, z_cfg))
            if joint:
                values.append(cond_oracle(table, x_map, {**y_map, **z_map}))
            else:
                full = table.schema.merge(x_map, y_map, z_map)
                values.append(table.rows.get(full, ZERO))
        if any(v != values[0] for v in values):
            return False
        if joint:
            x_mass = sum(
                (
                    table.rows[rows[i]]
                    for i in block
                    if tuple(rows[i][p] for p in x_pos) == x_cfg
                ),
                ZERO,
            )
            if values[0] != x_mass / block_mass:
                return False
    return True


def _weak_parts(table, rows, x_vars, y_vars, z_vars):
    """(commutes, classes) for the composition over the given rows."""
    n = len(rows)
    p = agree_pairs(rows, _positions(table, tuple(x_vars) + tuple(y_vars)))
    q = agree_pairs(rows, _positions(table, tuple(y_vars) + tuple(z_vars)))
    pq = compose_pairs(p, q, n)
    qp = compose_pairs(q, p, n)
    if pq != qp:
        return False, []
    return True, components(pq, n)


def wi_oracle(table, x_vars, z_vars, y_vars):
    rows = list(table.rows)
    if not rows:
        return True
    ok, classes = _weak_parts(table, rows, x_vars, y_vars, z_vars)
    if not ok:
        return False
    return all(
        _class_ci(table, rows, block, x_vars, y_vars, z_vars) for block in classes
    )


def cwi_oracle(table, x_vars, z_vars, context):
    ctx_vars = tuple(table.schema.order(context))
    ctx_pos = _positions(table, ctx_vars)
    wanted = [context[v] for v in ctx_vars]
    rows = [cfg for cfg in table.rows if _matches(cfg, ctx_pos, wanted)]
    if not rows:
        return True
    ok, classes = _weak_parts(table, rows, x_vars, ctx_vars, z_vars)
    if not ok:
        return False
    z_pos = _positions(table, z_vars)
    witnesses = 0
    satisfied = []
    for block in classes:
        good = _class_ci(table, rows, block, x_vars, ctx_vars, z_vars)
        satisfied.append(good)
        zs = {tuple(rows[i][p] for p in z_pos) for i in block}
        if good and len(zs) >= 2:
            witnesses += 1
    return witnesses > 0 or (len(classes) == 1 and satisfied[0])


# ---------------------------------------------------------------------------
# inference-rule closure
# ---------------------------------------------------------------------------


def _subsets(values):
    ordered = sorted(values)
    for size in range(len(ordered) + 1):
        yield from combinations(ordered, size)


def naive_closure(
    premises,
    universe,
    rules=ALL_RULES,
    max_universe=MAX_UNIVERSE,
):
    """Reference closure: FIFO worklist and a scan of all CIWI2 premise triples.

    Same fixed point, traces and ``derived_rules`` as ``axioms.closure``; it
    pops with ``list.pop(0)`` and, for each popped statement, tries every
    WI×WI×CI combination that includes it.
    """
    rules = tuple(rules)
    u = tuple(sorted(set(universe)))
    if len(u) > max_universe:
        raise LimitError(f"universe of {len(u)} variables exceeds bound {max_universe}")
    active = tuple(r for r in ALL_RULES if r in set(rules))
    unknown = set(rules) - set(ALL_RULES)
    if unknown:
        raise RuleShapeError(f"unknown rules: {sorted(unknown)}")

    known: dict[tuple, AxiomStatement] = {}
    traces: list[DerivationTrace] = []
    derived_rules: dict[AxiomStatement, set[str]] = {}
    worklist: list[AxiomStatement] = []

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
        for y in _subsets(frozenset(u)):
            for x in _subsets(frozenset(y)):
                literal = apply_wi1(u, x, y)
                insert(literal, RULE_WI1, (), (("X", x), ("Y", y)))

    wi_stmts: list[AxiomStatement] = []
    ci_stmts: list[AxiomStatement] = []

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
        current = worklist.pop(0)
        if not current.canonical:
            continue
        if current.kind == WI:
            wi_stmts.append(current)
            if RULE_WI2 in active:
                for w in _subsets(current.y):
                    first, second = apply_wi2(current, w)
                    insert(
                        first,
                        RULE_WI2,
                        (current,),
                        (("W", w), ("branch", ("first",))),
                    )
                    insert(
                        second,
                        RULE_WI2,
                        (current,),
                        (("W", w), ("branch", ("second",))),
                    )
            if RULE_WI3 in active:
                for w in _subsets(current.z):
                    literal = apply_wi3(current, w)
                    insert(literal, RULE_WI3, (current,), (("W", w),))
            if RULE_CIWI2 in active:
                for other in list(wi_stmts):
                    for ci in list(ci_stmts):
                        fire_ciwi2(current, other, ci)
                        if other != current:
                            fire_ciwi2(other, current, ci)
        else:
            ci_stmts.append(current)
            if RULE_CIWI1 in active:
                literal = apply_ciwi1(current)
                insert(literal, RULE_CIWI1, (current,), ())
            if RULE_CIWI2 in active:
                for a in list(wi_stmts):
                    for b in list(wi_stmts):
                        fire_ciwi2(a, b, current)

    return ClosureResult(
        u,
        frozenset(known.values()),
        tuple(traces),
        {k: frozenset(v) for k, v in derived_rules.items()},
    )


def _canonical_key(kind, x, z, y):
    """Key of a statement once its overlap with the conditioning set is removed."""
    return (kind, tuple(sorted(x - y)), tuple(sorted(z - y)), tuple(sorted(y)))


def missing_conclusions(statements, universe):
    """(rule, literal) for each rule conclusion absent from ``statements``.

    Every instance of the five rules whose premises are canonical members of
    the set is applied literally; an empty list means the set is closed.
    CIWI2 instances are found by key: the first premise and a choice of
    Z1 inside its conditioning set fix the other two premises.
    """
    u = tuple(sorted(universe))
    keys = {s.key() for s in statements}
    canonical = {s.key(): s for s in statements if s.canonical}
    missing = []

    def need(rule, literal):
        if _canonical_key(literal.kind, literal.x, literal.z, literal.y) not in keys:
            missing.append((rule, literal))

    for y in _subsets(u):
        for x in _subsets(y):
            need(RULE_WI1, apply_wi1(u, x, y))
    for s in canonical.values():
        if s.kind == CI:
            need(RULE_CIWI1, apply_ciwi1(s))
            continue
        for w in _subsets(s.y):
            for literal in apply_wi2(s, w):
                need(RULE_WI2, literal)
        for w in _subsets(s.z):
            need(RULE_WI3, apply_wi3(s, w))
        for z1 in map(frozenset, _subsets(s.y)):
            rest = s.y - z1
            p2 = canonical.get(_canonical_key(WI, s.x, z1, rest | s.z))
            p3 = canonical.get(_canonical_key(CI, z1, s.z, rest | s.x))
            if p2 is not None and p3 is not None:
                need(RULE_CIWI2, apply_ciwi2(s, p2, p3))
    return missing
