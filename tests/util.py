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
