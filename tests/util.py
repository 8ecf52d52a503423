"""Shared helpers for the test suite."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from weakind import tables


def tripartitions(names, dedup=False):
    """All (X, Z, Y) splits with X, Z nonempty, lexicographic over role vectors."""
    out = []
    for vec in product("XZY", repeat=len(names)):
        groups = {"X": [], "Z": [], "Y": []}
        for name, role in zip(names, vec):
            groups[role].append(name)
        if not groups["X"] or not groups["Z"]:
            continue
        x, z, y = tuple(groups["X"]), tuple(groups["Z"]), tuple(groups["Y"])
        if dedup and tuple(sorted(x)) > tuple(sorted(z)):
            continue
        out.append((x, z, y))
    return out


def random_tables(seed, count, sizes=((3, 2), (3, 3), (4, 2))):
    """Deterministic stream of random joint tables over small schemas."""
    rng = random.Random(seed)
    for _ in range(count):
        n_vars, max_dom = sizes[rng.randrange(len(sizes))]
        names = [f"V{i}" for i in range(n_vars)]
        spec = [(n, rng.randint(2, max_dom)) for n in names]
        yield tables.random_joint_table(rng, spec)


def random_factorized_table(rng, names, max_dom=3):
    """A joint table that factorizes over a random grouping of the variables.

    Within each group the distribution is random; across groups it is a
    product, so exact strong independencies are guaranteed to exist.
    """
    from fractions import Fraction
    from itertools import product as iproduct

    spec = [(n, rng.randint(2, max_dom)) for n in names]
    groups = []
    remaining = list(names)
    rng.shuffle(remaining)
    while remaining:
        size = rng.randint(1, len(remaining))
        groups.append(remaining[:size])
        remaining = remaining[size:]

    sizes = dict(spec)
    factors = []
    for group in groups:
        configs = list(iproduct(*(range(sizes[n]) for n in group)))
        weights = [rng.randint(0, 5) for _ in configs]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        factors.append(
            (group, {c: Fraction(w, total) for c, w in zip(configs, weights)})
        )

    schema = tables.VariableSchema(
        tuple(tables.Variable(n, tuple(str(i) for i in range(sizes[n]))) for n in names)
    )
    rows = {}
    for config in schema.configs():
        value = Fraction(1)
        by_name = dict(zip(names, config))
        for group, dist in factors:
            value *= dist[tuple(int(by_name[n]) for n in group)]
        if value > 0:
            rows[config] = value
    return tables.Table(schema, rows, "joint")


def make_table(variables, rows, kind="joint", targets=None, givens=None):
    schema = tables.VariableSchema(
        tuple(tables.Variable(n, tuple(d)) for n, d in variables)
    )
    return tables.Table(
        schema,
        {tuple(c): Fraction(p) for c, p in rows},
        kind,
        targets,
        givens,
    )


@st.composite
def kinded_tables(draw):
    """Sparse joint, conditional or raw tables of 2-4 variables, domains 1-3.

    Domains are listed in any order, so some are out of ``str`` order."""
    n = draw(st.integers(2, 4))
    names = [f"V{i}" for i in range(n)]
    variables = [(v, [str(d) for d in draw(st.permutations(range(draw(st.integers(1, 3)))))])
                 for v in names]
    kind = draw(st.sampled_from(["joint", "conditional", "raw"]))
    configs = list(product(*(d for _, d in variables)))
    weights = draw(st.lists(st.sampled_from((0, 0, 1, 2, 3)), min_size=len(configs),
                            max_size=len(configs)))
    return _kinded_table(draw, variables, kind, configs, weights)


@st.composite
def wide_tables(draw):
    """Joint, conditional or raw tables of 1-4 rows over 2-4 variables of up to
    50 values each, so that the declared products dwarf the support.

    Each domain is listed in numeric order (out of ``str`` order past 10
    values), in ``str`` order or shuffled. Each row value is half the time one
    of its variable's last two, so that rows sit late in domain order. The
    declared product stays at 5,000 cells or fewer, as the naive twins walk it.
    """
    variables, cells = [], 1
    for i in range(draw(st.integers(2, 4))):
        size = draw(st.integers(1, min(50, 5000 // cells)))
        cells *= size
        domain = [str(d) for d in range(size)]
        order = draw(st.sampled_from(("numeric", "str", "shuffled")))
        if order == "str":
            domain.sort()
        elif order == "shuffled":
            domain = draw(st.permutations(domain))
        variables.append((f"V{i}", domain))
    kind = draw(st.sampled_from(["joint", "conditional", "raw"]))
    late = [st.one_of(st.sampled_from(d[-2:]), st.sampled_from(d)) for _, d in variables]
    configs = sorted(draw(st.sets(st.tuples(*late), min_size=1, max_size=4)))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(configs), max_size=len(configs)))
    return _kinded_table(draw, variables, kind, configs, weights)


def _kinded_table(draw, variables, kind, configs, weights):
    """A table of ``kind`` whose rows are ``configs`` with ``weights``, a zero
    weight dropping its row: a normalized joint table, or a conditional or raw
    one with a drawn target-set."""
    names = [v for v, _ in variables]
    n = len(names)
    if kind == "joint":
        if not any(weights):
            weights[0] = 1
        # Rows a_i / b_i, normalized: their reduced denominators differ, so
        # the checkers' common denominator scales the weights.
        masses = [Fraction(w, draw(st.sampled_from((1, 2, 3, 5)))) for w in weights]
        total = sum(masses)
        return make_table(variables, [(c, m / total) for c, m in zip(configs, masses)])
    targets = tuple(draw(st.sets(st.sampled_from(names), min_size=1, max_size=n - 1)))
    givens = tuple(v for v in names if v not in targets)
    rows = list(zip(configs, (Fraction(w, draw(st.integers(1, 3))) for w in weights)))
    if kind == "conditional":
        # Every supported given-column sums to 1; some columns stay empty.
        g_pos = [names.index(v) for v in givens]
        column = {}
        for c, w in rows:
            g = tuple(c[p] for p in g_pos)
            column[g] = column.get(g, 0) + w
        rows = [(c, w / column[tuple(c[p] for p in g_pos)]) for c, w in rows if w]
    return make_table(variables, rows, kind, targets, givens)


def hostile_tables():
    """Name -> (one-row table, X, Z) for ``CI(X ⊥ Z)``: declared products of
    millions of cells around a single row, which a strong check must not walk.

    ``wide_z``: X binary, Z three variables of domain 200 (8,000,000 z-values).
    ``wider_z``: the same at domain 1,000, a 45 KB canonical document that
    declares 10^9 z-values.
    ``wide_x``: X three variables of domain 100, Z binary.
    ``raw``: a raw table over X and G0..G6 of domain 6, its row at ``5…5``,
    last in domain order.
    """
    d1000, d200, d100 = ([str(d) for d in range(n)] for n in (1000, 200, 100))
    z3 = ("Z0", "Z1", "Z2")
    wide_z, wider_z = (make_table([("X", "01")] + [(v, d) for v in z3],
                                  [(("1", "7", "199", "3"), "1")]) for d in (d200, d1000))
    x3 = ("X0", "X1", "X2")
    wide_x = make_table([(v, d100) for v in x3] + [("Z", "01")],
                        [(("99", "5", "0", "1"), "1")])
    g7 = tuple(f"G{i}" for i in range(7))
    raw = make_table([(v, "012345") for v in ("X",) + g7], [(("5",) * 8, "1")],
                     "raw", ("X",), g7)
    return {"wide_z": (wide_z, ("X",), z3), "wider_z": (wider_z, ("X",), z3),
            "wide_x": (wide_x, x3, ("Z",)),
            "raw": (raw, ("X",), g7)}
