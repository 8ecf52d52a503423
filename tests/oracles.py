"""Brute-force reference implementations used only as test oracles.

Everything here recomputes results from first principles with naive
enumeration: explicit pair sets built by double loops, composition by
triple loops, connected components by traversal, and conditionals by
direct summation over table rows. The package's partition machinery is
deliberately not used, so agreement between the two paths is meaningful.

``pairscan_commutes`` is the quadratic twin of the rectangle test in
``partitions.commutes``: it probes every pair of each join block for a
middle element.

``naive_nest``, ``naive_strong_check`` and ``naive_class_report`` are the
``Fraction`` references of the package's integer mass path. ``granular.nest``,
``independence._strong_check`` (joint tables) and
``independence._class_report`` scale every mass to an integer weight over a
common denominator (``tables.common_weights``), sum weights and compare
ratios by cross-multiplication; the twins add, divide and compare
``Fraction`` values directly.

``naive_nest`` is the twin of ``granular.nest``: it accumulates ``Fraction``
group sums per (outer, inner) split, divides every entry by its group's
sum, builds cells through the public ``NestedCell`` and re-validates its output
through the public ``NestedTable`` constructor. ``granular.nest`` builds
each cell from its group's integer weights, gcd-reduced, and makes the
cell's sorted ``Fraction`` rows only when they are read. ``nest_commutes``
decides in one pass over integer weights, building no cell; its answer is
checked against ``canonical_equal`` of the two naive double nests.

``naive_nest_commutes`` is ``nest_commutes`` as it was before it decided in
one pass: it copies the rows, computes their ``common_weights`` per call, runs
both orders through two ``granular._nest`` calls each, builds both ``Fraction``
tables at once and compares those. It refuses empty and overlapping sets, a
non-joint table, an unknown Z and an unknown X, in that order, before it
nests; a table already using ``B2`` or ``B1`` is then refused by the nests.
The package reads the weights cached as ``Table.weights``, compares its two
maps of (Y, X cell, Z cell) to mass without reading a name, and nests the
report's ``first`` and ``second`` tables, with those two refusals, only when
they are read.

``naive_strong_check`` and ``naive_class_report`` are the twins of the
checkers' inner steps ``independence._strong_check`` and
``independence._class_report``: they rebuild every compared cell from the
declared domains, merging per-value assignments into full configurations
and looking each one up, instead of reading the rows already in hand. The
strong twin walks the whole declared Y × Z × X product (Y × X × Z for a
conditional-shaped table), counting each comparison and vacuous cell as it
meets it; the package walks only the supported keys of its grouped rows
and computes both counts from the domain sizes. They
project configurations through this module's own ``_positions``, sorted
into schema order, and share no projection code with the package's
``partitions.projector``.
``naive_uniform_joint_extension`` regroups rows by given-configuration
before it normalizes, where ``tables.uniform_joint_extension`` divides once
by the total mass.

``naive_serialize_table`` is the twin of ``tables.serialize_table``: it sorts
rows by ``domain.index`` per value, where the package sorts configurations
as plain tuples whenever every domain is listed in ``str`` order. For JSON
it builds the canonical document as dicts and lists and runs
``json.dumps(doc, indent=2)``, where the package writes the same bytes
directly. Its CSV form, which the package reads but never writes, feeds
the CSV loader's round trip. ``naive_write_json`` is
``json.dumps(doc, indent=2)`` itself, the twin of ``tables.write_json``,
which writes every report.

``naive_load_table`` is the twin of ``tables.load_table``: it collects every
row, zero rows included, and hands them to the public ``Table`` constructor,
which checks arity, domains, duplicates, values, kind, targets and givens
again. The package checks each once as it reads the row and builds the table
through the trusted ``Table._built``. Both read JSON text and literals with
the package's ``_parse_json`` and ``_to_fraction``. ``naive_load_nested`` is
the same twin of ``granular.load_nested``: it reads each plain attribute as a
public ``Variable``, builds every row, then the public ``NestedTable``
constructor checks domains, attribute names and each cell again.

The closure references reuse the package's literal rule functions but none
of its fixed-point machinery: ``naive_closure`` tries every premise pair or
triple for CIWI2, and ``missing_conclusions`` checks closedness by key
lookups over a finished statement set.
"""

import csv
import io
import json
from dataclasses import dataclass
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
from weakind.errors import (
    LimitError,
    NormalizationError,
    ParseError,
    RuleShapeError,
    SchemaError,
    StatementError,
)
from weakind.granular import Attribute, NestedCell, NestedTable, _nest, _scaled
from weakind.independence import (
    ClassCounterexample,
    ClassReport,
    Counterexample,
    StrongCertificate,
)
from weakind.partitions import CommutationResult, Partition
from weakind.tables import (
    JOINT,
    RAW,
    Table,
    Variable,
    VariableSchema,
    _json_list,
    _parse_json,
    _read_source,
    _to_fraction,
    common_weights,
)

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


def partition_of(n, blocks):
    """The ``Partition`` of ``0 .. n-1`` with these blocks, numbered in order
    of their minimum. The blocks must be nonempty, disjoint and cover the range."""
    ids = [None] * n
    for number, block in enumerate(sorted(blocks, key=min)):
        for i in block:
            assert ids[i] is None, "partition blocks overlap"
            ids[i] = number
    assert None not in ids, "partition blocks do not cover the index range"
    return Partition(tuple(ids))


def join_partition(blocks_a, blocks_b, n):
    """Transitive-closure join of two partitions, as canonical blocks."""
    pairs = partition_pairs(blocks_a) | partition_pairs(blocks_b)
    return tuple(components(pairs, n))


def pairscan_commutes(p, q):
    """Naive twin of ``partitions.commutes``: probe every pair of each join block.

    Same verdict, join and witness: the first pair (i, k), i < k, of sorted
    members, blocks ordered by minimum, that has a middle element in one
    order only. The join comes from ``join_partition``.
    """
    if p.n != q.n:
        raise SchemaError("partitions are over different supports")
    p_block = {i: b for b in p.blocks for i in b}
    q_block = {i: b for b in q.blocks for i in b}
    joined = partition_of(p.n, join_partition(p.blocks, q.blocks, p.n))

    def middle(i: int, k: int) -> bool:
        return not p_block[i].isdisjoint(q_block[k])

    for block in joined.blocks:
        members = sorted(block)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, k = members[a], members[b]
                fwd, back = middle(i, k), middle(k, i)
                if fwd != back:
                    return CommutationResult(False, None, (i, k) if fwd else (k, i))
    return CommutationResult(True, joined, None)


def naive_nest(table, b_name, names):
    """Naive twin of ``granular.nest``: same attributes, rows, row order and cells."""
    if not isinstance(table, NestedTable):
        table = NestedTable(table.schema.variables, dict(table.rows))
    wanted = set(names)
    if not wanted:
        raise SchemaError("cannot nest an empty attribute set")
    unknown = wanted - set(table.names)
    if unknown:
        raise SchemaError(f"unknown attributes: {sorted(unknown)}")
    if b_name in table.names:
        raise SchemaError(f"attribute name {b_name!r} already in use")

    inner_positions = [i for i, a in enumerate(table.attributes) if a.name in wanted]
    outer_positions = [i for i, a in enumerate(table.attributes) if a.name not in wanted]
    inner_attrs = tuple(table.attributes[i] for i in inner_positions)
    insert_at = sum(1 for i in outer_positions if i < inner_positions[0])

    groups = {}
    for key, value in table.rows.items():
        outer = tuple(key[i] for i in outer_positions)
        inner = tuple(key[i] for i in inner_positions)
        bucket = groups.setdefault(outer, {})
        bucket[inner] = bucket.get(inner, ZERO) + value

    new_attrs = list(table.attributes[i] for i in outer_positions)
    new_attrs.insert(insert_at, Attribute(b_name, inner_attrs))
    rows = {}
    for outer, bucket in groups.items():
        total = sum(bucket.values(), ZERO)
        cell = NestedCell(inner_attrs, {inner: v / total for inner, v in bucket.items()})
        rows[outer[:insert_at] + (cell,) + outer[insert_at:]] = total
    return NestedTable(tuple(new_attrs), rows)


@dataclass(frozen=True)
class NaiveCommutation:
    equal: bool
    first: NestedTable
    second: NestedTable

    def to_json_dict(self):
        return {"equal": self.equal, "first": self.first.to_json_dict(),
                "second": self.second.to_json_dict()}


def naive_nest_commutes(table, x, z, b_x="B1", b_z="B2"):
    """Eager twin of ``granular.nest_commutes``: per-call weights, both tables built."""
    xs, zs = set(x), set(z)
    if not xs or not zs:
        raise SchemaError("both attribute sets must be nonempty")
    if xs & zs:
        raise SchemaError("attribute sets overlap")
    if not isinstance(table, NestedTable):
        if table.kind != JOINT:
            raise SchemaError("only joint tables can be coarsened directly")
        table = NestedTable(table.schema.variables, dict(table.rows))
    for names in (zs, xs):
        unknown = names - set(table.names)
        if unknown:
            raise SchemaError(f"unknown attributes: {sorted(unknown)}")
    lcm, weights = common_weights(table.rows.values())
    rows = dict(zip(table.rows, weights))
    first = _scaled(*_nest(*_nest(table.attributes, rows, b_z, zs), b_x, xs), lcm)
    second = _scaled(*_nest(*_nest(table.attributes, rows, b_x, xs), b_z, zs), lcm)
    return NaiveCommutation(first.rows == second.rows, first, second)


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


def _partial_mass(table, assignment):
    """Sum of all rows matching a partial assignment."""
    return _mass(table, _positions(table, list(assignment)), list(assignment.values()))


def _project(table, config, names):
    """A configuration's values on ``names``, in schema order."""
    return tuple(config[p] for p in sorted(_positions(table, names)))


def _merge(table, *parts):
    """The full configuration assembled from disjoint partial assignments."""
    merged = {}
    for part in parts:
        merged.update(part)
    return tuple(merged[n] for n in table.schema.names)


def _value(table, config):
    return table.rows.get(tuple(config), ZERO)


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
            if _partial_mass(table, yz_map) == 0:
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
                values.append(_value(table, _merge(table, x_map, y_map, z_map)))
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
# naive twins of the checkers' inner steps
# ---------------------------------------------------------------------------


def naive_strong_check(table, x_vars, z_vars, y_vars, context):
    """Twin of ``independence._strong_check``: every cell from the declared domains.

    It visits every declared cell, supported or not, and counts each
    comparison and vacuous cell as it meets it, where the package walks only
    supported keys and counts the rest from the domain sizes. The joint path
    keys its ``Fraction`` masses by schema-ordered projections that include
    the context and keeps walking past its first counterexample; the
    conditional-shaped path merges each full configuration from per-value
    maps and looks it up. Its cost is the declared product, so differential
    tests keep that product small.
    """
    schema = table.schema
    context_in_support = True if not context else _partial_mass(table, context) > 0
    comparisons = 0
    vacuous = 0
    counterexample = None

    if table.kind == JOINT:
        g_vars = tuple(y_vars) + tuple(context)
        y_pos = sorted(_positions(table, g_vars))
        yz_pos = sorted(_positions(table, g_vars + tuple(z_vars)))
        x_pos = sorted(_positions(table, x_vars))
        mass_g, mass_gz, mass_gx, mass_gzx = {}, {}, {}, {}
        for cfg, value in table.rows.items():
            g = tuple(cfg[p] for p in y_pos)
            gz = tuple(cfg[p] for p in yz_pos)
            xv = tuple(cfg[p] for p in x_pos)
            mass_g[g] = mass_g.get(g, ZERO) + value
            mass_gz[gz] = mass_gz.get(gz, ZERO) + value
            mass_gx[(g, xv)] = mass_gx.get((g, xv), ZERO) + value
            mass_gzx[(gz, xv)] = mass_gzx.get((gz, xv), ZERO) + value

        ctx_vals = dict(context)
        g_names = schema.order(tuple(y_vars) + tuple(ctx_vals))
        gz_names = schema.order(tuple(g_names) + tuple(z_vars))
        for y_cfg in schema.configs(y_vars):
            y_map = dict(zip(y_vars, y_cfg))
            g_key = tuple({**y_map, **ctx_vals}[n] for n in g_names)
            pg = mass_g.get(g_key, ZERO)
            if pg == 0:
                vacuous += 1
                continue
            rhs = {
                x_cfg: mass_gx.get((g_key, x_cfg), ZERO) / pg
                for x_cfg in schema.configs(x_vars)
            }
            for z_cfg in schema.configs(z_vars):
                z_map = dict(zip(z_vars, z_cfg))
                gz_key = tuple({**y_map, **ctx_vals, **z_map}[n] for n in gz_names)
                pgz = mass_gz.get(gz_key, ZERO)
                if pgz == 0:
                    vacuous += 1
                    continue
                for x_cfg in schema.configs(x_vars):
                    comparisons += 1
                    lhs = mass_gzx.get((gz_key, x_cfg), ZERO) / pgz
                    if lhs != rhs[x_cfg] and counterexample is None:
                        counterexample = Counterexample(
                            x_cfg, y_cfg, z_cfg, lhs, None, rhs[x_cfg]
                        )
        return counterexample is None, StrongCertificate(
            comparisons, vacuous, context_in_support, counterexample
        )

    given_support = {_project(table, cfg, table.givens) for cfg in table.rows}
    for y_cfg in schema.configs(y_vars):
        y_map = dict(zip(y_vars, y_cfg))
        for x_cfg in schema.configs(x_vars):
            x_map = dict(zip(x_vars, x_cfg))
            baseline = None
            for z_cfg in schema.configs(z_vars):
                z_map = dict(zip(z_vars, z_cfg))
                full = _merge(table, x_map, y_map, dict(context), z_map)
                if (
                    table.kind != RAW
                    and _project(table, full, table.givens) not in given_support
                ):
                    vacuous += 1
                    continue
                value = _value(table, full)
                if baseline is None:
                    baseline = (z_cfg, value)
                    continue
                comparisons += 1
                if value != baseline[1] and counterexample is None:
                    counterexample = Counterexample(
                        x_cfg, y_cfg, z_cfg, value, baseline[0], baseline[1]
                    )
    return counterexample is None, StrongCertificate(
        comparisons, vacuous, context_in_support, counterexample
    )


def naive_class_report(table, support, block, x_vars, y_vars, z_vars):
    """Twin of ``independence._class_report``: every cell merged and looked up.

    Projected domains come from a direct scan of the block, and each
    (x, z) cell is read from the table by its merged full configuration.
    """
    schema = table.schema

    def domain(names):
        pos = _positions(table, names)
        values = {tuple(support.rows[i][1][p] for p in pos) for i in block}
        domains = [schema.variable(n).domain for n in names]
        return tuple(
            sorted(values, key=lambda c: [d.index(v) for d, v in zip(domains, c)])
        )

    x_values, y_values, z_values = domain(x_vars), domain(y_vars), domain(z_vars)
    assert len(y_values) == 1
    y_map = dict(zip(y_vars, y_values[0]))
    counterexample = None
    joint = table.kind == JOINT
    if joint:
        x_pos, z_pos = _positions(table, x_vars), _positions(table, z_vars)
        mass_total, mass_x, mass_z = ZERO, {}, {}
        for i in block:
            cfg = support.rows[i][1]
            value = _value(table, cfg)
            mass_total += value
            xv = tuple(cfg[p] for p in x_pos)
            zv = tuple(cfg[p] for p in z_pos)
            mass_x[xv] = mass_x.get(xv, ZERO) + value
            mass_z[zv] = mass_z.get(zv, ZERO) + value
    for x_cfg in x_values:
        x_map = dict(zip(x_vars, x_cfg))
        expected = mass_x[x_cfg] / mass_total if joint else None
        baseline = None
        for z_cfg in z_values:
            z_map = dict(zip(z_vars, z_cfg))
            value = _value(table, _merge(table, x_map, y_map, z_map))
            if joint:
                value /= mass_z[z_cfg]
            if baseline is None:
                baseline = (z_cfg, value)
            elif value != baseline[1] and counterexample is None:
                counterexample = ClassCounterexample(
                    x_cfg, z_cfg, value, baseline[0], baseline[1], "constancy"
                )
            if joint and value != expected and counterexample is None:
                counterexample = ClassCounterexample(
                    x_cfg, z_cfg, value, None, expected, "marginal"
                )
    return ClassReport(
        tuple(support.rows[i][0] for i in sorted(block)),
        x_values,
        y_values,
        z_values,
        counterexample is None,
        len(z_values) < 2,
        counterexample,
    )


def naive_uniform_joint_extension(table):
    """Twin of ``tables.uniform_joint_extension``: regroup by given-configuration.

    Each supported given-configuration gets weight 1/count, then the total
    is normalized; the result equals ``v / Σ v`` row by row.
    """
    if table.kind == JOINT:
        return table
    by_given = {}
    for config, value in table.rows.items():
        by_given.setdefault(_project(table, config, table.givens), []).append(
            (config, value)
        )
    if not by_given:
        raise SchemaError("cannot extend a table with empty support")
    count = Fraction(len(by_given))
    rows = {}
    for entries in by_given.values():
        for config, value in entries:
            rows[config] = value / count
    total = sum(rows.values(), ZERO)
    return Table(table.schema, {c: v / total for c, v in rows.items()}, JOINT)


def naive_serialize_table(table, format="json"):
    """Twin of ``tables.serialize_table(table)``: ``json.dumps`` of the document.
    With ``format="csv"``, the CSV form ``load_table`` reads instead: a
    ``csv.writer`` row per configuration."""
    variables = table.schema.variables

    def key(config):
        return tuple(v.domain.index(value) for v, value in zip(variables, config))

    rows = [(list(config), f"{p.numerator}/{p.denominator}")
            for config, p in sorted(table.rows.items(), key=lambda item: key(item[0]))]
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([v.name for v in variables] + ["p"])
        writer.writerows(config + [p] for config, p in rows)
        return out.getvalue()
    doc = {
        "variables": [{"name": v.name, "domain": list(v.domain)} for v in variables],
        "kind": table.kind,
    }
    if table.kind != JOINT:
        doc["targets"] = list(table.targets or ())
        doc["givens"] = list(table.givens or ())
    doc["rows"] = [{"config": config, "p": p} for config, p in rows]
    return json.dumps(doc, indent=2) + "\n"


def naive_write_json(doc):
    """Twin of ``tables.write_json(doc)``."""
    return json.dumps(doc, indent=2)


def naive_load_table(source, format="json", check=True):
    """Twin of ``tables.load_table``: collect the rows, then ``Table(...)``."""
    text = _read_source(source)
    if format == "json":
        table = _naive_load_json(text)
    elif format == "csv":
        table = _naive_load_csv(text)
    else:
        raise ParseError(f"unknown format {format!r}")
    if check:
        report = table.validate()
        if not report.ok:
            raise NormalizationError(report.violations[0].message)
    return table


def _naive_load_json(text):
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise ParseError("table document must be a JSON object")
    try:
        variables = tuple(
            Variable(str(v["name"]), tuple(str(d) for d in _json_list(v, "domain")))
            for v in _json_list(doc, "variables")
        )
        kind = doc.get("kind", JOINT)
        rows_doc = _json_list(doc, "rows")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    schema = VariableSchema(variables)
    rows = {}
    for entry in rows_doc:
        try:
            config = tuple(map(str, _json_list(entry, "config")))
            prob = entry["p"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed row entry: {entry!r}") from exc
        if config in rows:
            raise SchemaError(f"duplicate configuration: {config}")
        rows[config] = _to_fraction(prob)
    targets = tuple(_json_list(doc, "targets")) if "targets" in doc else None
    givens = tuple(_json_list(doc, "givens")) if "givens" in doc else None
    return Table(schema, rows, kind, targets, givens)


def _naive_load_csv(text):
    try:
        return _naive_load_records(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV document: {exc}") from exc


def _naive_load_records(reader):
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty CSV document") from None
    if not header or header[-1] != "p":
        raise ParseError("CSV header must end with a 'p' column")
    names = header[:-1]
    if not names:
        raise ParseError("CSV document declares no variables")
    domains = [{} for _ in names]
    configs = []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise ParseError(f"CSV line {lineno} has {len(record)} fields")
        config = tuple(record[:-1])
        for value, domain in zip(config, domains):
            domain.setdefault(value)
        configs.append((config, _to_fraction(record[-1])))
    schema = VariableSchema(tuple(Variable(n, tuple(d)) for n, d in zip(names, domains)))
    rows = {}
    for config, value in configs:
        if config in rows:
            raise SchemaError(f"duplicate configuration: {config}")
        rows[config] = value
    return Table(schema, rows, JOINT)


def naive_load_nested(text):
    """Twin of ``granular.load_nested``: builds every cell through
    the public ``NestedCell``, refuses a name repeated at any level of the
    attributes, then hands the rows to the public ``NestedTable``, which
    checks domains, attribute names and every cell again."""
    doc = _parse_json(_read_source(text))
    if not isinstance(doc, dict) or "attributes" not in doc:
        raise ParseError("nested table document requires an 'attributes' field")
    attributes = tuple(_naive_attribute(a) for a in _json_list(doc, "attributes"))
    rows = {}
    for entry in _json_list(doc, "rows") if "rows" in doc else ():
        try:
            cells = _json_list(entry, "cells")
            prob = entry["p"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed row entry: {entry!r}") from exc
        if len(cells) != len(attributes):
            raise ParseError("row arity does not match attributes")
        key = tuple(_naive_cell(cell, attr) for cell, attr in zip(cells, attributes))
        if key in rows:
            raise SchemaError(f"duplicate row: {key}")
        rows[key] = _to_fraction(prob)
    levels = [attributes]
    while levels:
        level = levels.pop()
        if len({a.name for a in level}) != len(level):
            raise SchemaError("duplicate attribute names")
        levels.extend(a.nested for a in level if isinstance(a, Attribute))
    table = NestedTable(attributes, rows)
    total = sum(table.rows.values(), ZERO)
    if total != 1:
        raise NormalizationError(f"nested document probabilities sum to {total}, not 1")
    return table


def _naive_attribute(doc):
    try:
        name = str(doc["name"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed attribute: {exc}") from exc
    if "nested" in doc:
        inner = _json_list(doc, "nested")
        return Attribute(name, tuple(_naive_attribute(a) for a in inner))
    if "domain" in doc:
        return Variable(name, tuple(str(d) for d in _json_list(doc, "domain")))
    raise ParseError(f"attribute {name!r} needs either a domain or nested attributes")


def _naive_cell(value, attr):
    if isinstance(attr, Variable):
        if not isinstance(value, str):
            raise ParseError(f"cell for plain attribute {attr.name!r} must be a string")
        return value
    if not isinstance(value, list):
        raise ParseError(f"cell for nested attribute {attr.name!r} must be a list")
    rows = {}
    for entry in value:
        try:
            config = _json_list(entry, "config")
            prob = entry["P(Y)"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed nested cell entry: {entry!r}") from exc
        if len(config) != len(attr.nested):
            raise ParseError("nested config arity does not match inner attributes")
        key = tuple(_naive_cell(v, a) for v, a in zip(config, attr.nested))
        if key in rows:
            raise SchemaError(f"duplicate nested row in {attr.name!r}: {key}")
        rows[key] = _to_fraction(prob)
    return NestedCell(attr.nested, rows)


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
    WI×WI×CI combination that includes it. It applies the literal rules to
    ``AxiomStatement`` objects, with no masks, and rebuilds every premise
    over the sorted universe.
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
        # Over the sorted universe, so that conclusions carry it too.
        premise = AxiomStatement(premise.kind, premise.x, premise.z, premise.y, u)
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
