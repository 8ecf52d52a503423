import random
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakind import granular, partitions
from weakind.errors import SchemaError
from weakind.independence import check_wi
from weakind.partitions import (
    Partition,
    SupportSet,
    commutes,
    join,
    projected_domain,
    restrict_context,
    theta,
)
from weakind.tables import Table, Variable, VariableSchema

import oracles


def blocks_as_labels(support, blocks):
    return [support.label_block(b) for b in blocks]


def test_theta_on_wi_cpt(wi_cpt):
    sup = wi_cpt.support()
    p = theta(sup, ("X", "Y"))
    assert blocks_as_labels(sup, p.blocks)[:2] == [
        ("t1", "t2", "t3", "t4"),
        ("t5", "t6", "t7", "t8"),
    ]
    assert len(p.blocks) == 8
    assert all(len(b) == 4 for b in p.blocks)


def test_theta_empty_and_full(cwi_cpt):
    sup = cwi_cpt.support()
    assert len(theta(sup, ()).blocks) == 1
    singletons = theta(sup, sup.variables)
    assert all(len(b) == 1 for b in singletons.blocks)


@st.composite
def supports_with_names(draw):
    """A support of up to 12 distinct rows over 1-4 variables of domain 1-3, with
    any table positions; a subset of its variables in any order; and a run of
    values of that subset, some held by no row and one outside every domain."""
    variables = tuple(f"V{i}" for i in range(draw(st.integers(1, 4))))
    domains = [[str(d) for d in range(draw(st.integers(1, 3)))] for _ in variables]
    cells = list(product(*domains))
    configs = tuple(draw(st.lists(st.sampled_from(cells), max_size=12, unique=True)))
    positions = tuple(sorted(draw(st.lists(st.integers(0, 40), min_size=len(configs),
                                           max_size=len(configs), unique=True))))
    names = draw(st.permutations(sorted(draw(st.sets(st.sampled_from(variables))))))
    wanted = [d for v, d in zip(variables, domains) if v in names]
    values = draw(st.lists(st.sampled_from(list(product(*wanted))), max_size=4))
    return SupportSet(variables, configs, positions), names, values + [("9",) * len(names)]


@given(supports_with_names())
@settings(max_examples=200, deadline=None)
def test_theta_keys_and_context_restriction_match_the_rows(case):
    """``theta`` keys each block by its rows' values, is kept per variable set
    whatever the order of the names, and ``restrict_context`` on its blocks
    keeps exactly the rows a naive filter keeps, with their positions and
    labels, for every value of one variable set in a row."""
    support, names, values = case
    part = theta(support, names)
    columns = [i for i, v in enumerate(support.variables) if v in names]
    assert [part.keys[b] for b in part.ids] == [
        tuple(cfg[i] for i in columns) for cfg in support.configs]
    assert len(set(part.keys)) == len(part.keys) == len(set(part.ids))
    assert theta(support, names[::-1]) is part and theta(support, set(names)) is part
    for value in values:
        by_schema = dict(zip(sorted(names, key=support.variables.index), value))
        context = {v: by_schema[v] for v in names}  # in the drawn order
        # theta of the context's variables is kept above: restricting only reads it.
        with mock.patch.object(partitions, "projector", side_effect=AssertionError):
            restricted = restrict_context(support, context)
        kept = [k for k, cfg in enumerate(support.configs)
                if all(cfg[support.variables.index(v)] == d for v, d in context.items())]
        assert restricted.configs == tuple(support.configs[k] for k in kept)
        assert restricted.positions == tuple(support.positions[k] for k in kept)
        assert restricted.labels == tuple(support.labels[k] for k in kept)
        assert restricted is support or names


def test_restrict_context(cwi_cpt):
    sup = cwi_cpt.support()
    restricted = restrict_context(sup, {"Y": "0"})
    assert restricted.labels == tuple(f"t{i}" for i in range(1, 13))
    # Re-indexed from 0, the rows keep their table positions and so their labels.
    rest = restrict_context(sup, {"Y": "1"})
    assert rest.positions == (12, 13, 14) and rest.labels == ("t13", "t14", "t15")
    assert rest.configs == sup.configs[12:] and rest.label_block({2, 0}) == ("t13", "t15")
    assert restrict_context(sup, {}) is sup
    assert len(restrict_context(sup, {"Y": "2"})) == 0


class _Counted(tuple):
    """A tuple that counts the elements read from it by iterating or indexing."""

    reads = 0

    def __iter__(self):
        for item in super().__iter__():
            _Counted.reads += 1
            yield item

    def __getitem__(self, index):
        _Counted.reads += 1
        return super().__getitem__(index)


def test_restriction_reads_only_the_contexts_rows():
    """Once theta of the context variables is built, restricting to a context
    reads a configuration and a position of each of its rows, and no other row
    of those or of theta's block ids."""
    configs = tuple(product(*(tuple(map(str, range(k))) for k in (4, 4, 8))))
    support = SupportSet(("A", "B", "C"), _Counted(configs), _Counted(range(len(configs))))
    restrict_context(support, {"C": "0"})
    part = support.thetas[frozenset("C")]
    counted = support.thetas[frozenset("C")] = Partition(_Counted(part.ids), part.keys)
    assert counted.blocks == part.blocks  # built before the count starts
    _Counted.reads = 0
    restricted = restrict_context(support, {"C": "5"})
    assert restricted.configs == tuple(c for c in configs if c[2] == "5")
    assert len(restricted) == 16 and _Counted.reads == 2 * len(restricted)


def test_compose_context_zero(cwi_cpt):
    sup = restrict_context(cwi_cpt.support(), {"Y": "0"})
    p = theta(sup, ("X", "Y"))
    q = theta(sup, ("Y", "Z", "W"))
    result = commutes(p, q)
    assert result.commutes
    assert blocks_as_labels(sup, result.join.blocks) == [
        ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"),
        ("t9", "t10", "t11", "t12"),
    ]


def test_commutes_on_wi_cpt(wi_cpt):
    sup = wi_cpt.support()
    p = theta(sup, ("X", "Y"))
    q = theta(sup, ("Y", "Z", "W"))
    result = commutes(p, q)
    assert result.commutes
    assert blocks_as_labels(sup, result.join.blocks) == [
        tuple(f"t{i}" for i in range(1, 9)),
        tuple(f"t{i}" for i in range(9, 17)),
        tuple(f"t{i}" for i in range(17, 25)),
        tuple(f"t{i}" for i in range(25, 33)),
    ]


def test_commutes_idempotent():
    p = oracles.partition_of(4, [{0, 1}, {2, 3}])
    result = commutes(p, p)
    assert result.commutes and result.join == p


def test_noncommuting_three_elements():
    # p = {{a,b},{c}}, q = {{a},{b,c}}: the compositions differ, e.g. the
    # pair (a, c) has a middle element one way round but not the other.
    p = oracles.partition_of(3, [{0, 1}, {2}])
    q = oracles.partition_of(3, [{0}, {1, 2}])
    n = 3
    p_pairs = oracles.partition_pairs(p.blocks)
    q_pairs = oracles.partition_pairs(q.blocks)
    pq = oracles.compose_pairs(p_pairs, q_pairs, n)
    qp = oracles.compose_pairs(q_pairs, p_pairs, n)
    assert pq != qp  # frozen from the pair enumeration oracle
    result = commutes(p, q)
    assert not result.commutes
    i, k = result.witness
    assert ((i, k) in pq) != ((i, k) in qp)


def test_mismatched_supports_rejected():
    p = oracles.partition_of(3, [{0, 1}, {2}])
    q = oracles.partition_of(4, [{0}, {1, 2, 3}])
    with pytest.raises(SchemaError):
        commutes(p, q)


def test_projected_domain_on_cwi_cpt(cwi_cpt):
    sup = restrict_context(cwi_cpt.support(), {"Y": "0"})
    pi1 = frozenset(range(8))
    assert projected_domain(pi1, sup, ("X",)) == {("0",), ("1",)}
    assert projected_domain(pi1, sup, ("Z", "W")) == {
        ("0", "0"),
        ("0", "1"),
        ("1", "0"),
        ("1", "1"),
    }
    assert projected_domain(pi1, sup, ()) == {()}


def labels_to_partition(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return oracles.partition_of(len(labels), groups.values())


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    labels_p = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    labels_q = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    return labels_to_partition(labels_p), labels_to_partition(labels_q)


@given(partition_pairs())
@settings(max_examples=120, deadline=None)
def test_commutes_matches_bruteforce(pair):
    p, q = pair
    n = p.n
    p_pairs = oracles.partition_pairs(p.blocks)
    q_pairs = oracles.partition_pairs(q.blocks)
    pq = oracles.compose_pairs(p_pairs, q_pairs, n)
    qp = oracles.compose_pairs(q_pairs, p_pairs, n)
    result = commutes(p, q)
    assert result.commutes == (pq == qp)
    if result.commutes:
        expected = oracles.join_partition(p.blocks, q.blocks, n)
        assert tuple(result.join.blocks) == expected
        # The composition of commuting partitions is exactly the join.
        assert pq == {(i, k) for b in expected for i in b for k in b}
    else:
        i, k = result.witness
        assert ((i, k) in pq) != ((i, k) in qp)
    # Symmetry of the test itself.
    assert commutes(q, p).commutes == result.commutes


@st.composite
def few_label_pairs(draw):
    """Up to 40 indices over at most 4 labels a side: mostly one big join block."""
    n = draw(st.integers(min_value=1, max_value=40))
    labels = [
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        for k in (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    ]
    return labels_to_partition(labels[0]), labels_to_partition(labels[1])


@st.composite
def segmented_pairs(draw):
    """Several join blocks, up to 39 indices, some rectangular by construction.

    Each segment has labels of its own, so no join block spans two segments.
    A segment is a full grid of (p, q) cells, which is one rectangular block,
    or arbitrary cells of the grid. Shuffling the indices of all segments
    together lets a failing block come after rectangular ones.
    """
    cells = []
    for seg in range(draw(st.integers(1, 3))):
        grid = [
            ((seg, a), (seg, b))
            for a in range(draw(st.integers(1, 3)))
            for b in range(draw(st.integers(1, 3)))
        ]
        if draw(st.booleans()):
            cells += grid + draw(st.lists(st.sampled_from(grid), max_size=4))
        else:
            cells += draw(st.lists(st.sampled_from(grid), min_size=1, max_size=13))
    cells = draw(st.permutations(cells))
    return (
        labels_to_partition([a for a, _ in cells]),
        labels_to_partition([b for _, b in cells]),
    )


@st.composite
def defective_grids(draw):
    """A k x k grid of (p, q) cells, k <= 6, less some drawn cells, with the
    rows of the p- and q-classes that lost a cell last, so that the first rows
    of a failing block mostly have no partner. Sometimes a second segment of arbitrary cells, with
    labels of its own, has its rows inserted among the grid's."""
    k = draw(st.integers(2, 6))
    grid = list(product(range(k), repeat=2))
    missing = draw(st.sets(st.sampled_from(grid), min_size=1, max_size=k))
    short_p, short_q = {a for a, _ in missing}, {b for _, b in missing}
    cells = sorted((c for c in grid if c not in missing),
                   key=lambda c: c[0] in short_p or c[1] in short_q)
    if draw(st.booleans()):
        segment = list(product(("a", "b", "c"), repeat=2))
        for cell in draw(st.lists(st.sampled_from(segment), min_size=1, max_size=6)):
            cells.insert(draw(st.integers(0, len(cells))), cell)
    return (
        labels_to_partition([a for a, _ in cells]),
        labels_to_partition([b for _, b in cells]),
    )


@given(st.one_of(few_label_pairs(), segmented_pairs(), defective_grids()))
@example((  # a 2x2 rectangle, then the three-element failure
    labels_to_partition([0, 0, 1, 1, 2, 2, 3]),
    labels_to_partition([0, 1, 0, 1, 2, 3, 3]),
))
@example((  # row 0 meets every block on both sides; the witness is (1, 5)
    labels_to_partition(list("AAABBCC")),
    labels_to_partition([1, 2, 3, 1, 2, 1, 3]),
))
@example((  # those seven cells at rows 0 and 3-8, and a second failing block at
    # rows 1, 2 and 9 whose row 2 has a partner: the witness is still (3, 7)
    labels_to_partition(list("ADEAABBCCD")),
    labels_to_partition([1, 4, 4, 2, 3, 1, 2, 1, 3, 5]),
))
@settings(max_examples=300, deadline=None)
def test_commutes_matches_pairscan(pair):
    p, q = pair
    for a, b in ((p, q), (q, p)):
        assert commutes(a, b) == oracles.pairscan_commutes(a, b)
        expected = oracles.join_partition(a.blocks, b.blocks, a.n)
        assert join(a, b) == oracles.partition_of(a.n, expected)


def grid_pair(k, corner):
    """One row per (p, q) cell of a k x k grid, less the (k-1, k-1) corner if
    ``corner``: one join block. The rows of the corner classes come last."""
    cells = [(a, b) for a in range(k) for b in range(k) if not (corner and a == b == k - 1)]
    cells.sort(key=lambda cell: k - 1 in cell)
    return labels_to_partition([a for a, _ in cells]), labels_to_partition([b for _, b in cells])


@pytest.mark.parametrize("corner", [True, False], ids=["minus-corner", "full"])
def test_commutes_on_a_large_grid_block(corner):
    p, q = grid_pair(12, corner)
    for a, b in ((p, q), (q, p)):
        result = commutes(a, b)
        assert result == oracles.pairscan_commutes(a, b)
        assert result.commutes is not corner
        assert join(a, b).blocks == (frozenset(range(a.n)),)


def test_full_support_wi_matches_nest_commutes():
    # 6 variables of domain 4 with every row supported: the 4,096 rows form
    # one join block for X = {V0}, Z = {V1..V5}, Y = {}.
    rng = random.Random(7)
    schema = VariableSchema(
        tuple(Variable(f"V{i}", tuple("0123")) for i in range(6))
    )
    configs = list(schema.configs())
    head = [rng.randint(1, 9) for _ in range(4)]
    tail = {c[1:]: rng.randint(1, 9) for c in configs}
    product_weights = [head[int(c[0])] * tail[c[1:]] for c in configs]
    random_weights = [rng.randint(1, 9) for _ in configs]
    x, z = ("V0",), tuple(f"V{i}" for i in range(1, 6))
    for weights, holds in ((product_weights, True), (random_weights, False)):
        total = sum(weights)
        table = Table(schema, {c: Fraction(w, total) for c, w in zip(configs, weights)})
        assert len(table.support()) == 4096
        assert check_wi(table, x, z, ()).holds is holds
        assert granular.nest_commutes(table, x, z).equal is holds


def random_support(rng, n_vars=3, n_rows=6):
    configs = {}
    while len(configs) < n_rows:
        configs[tuple(str(rng.randint(0, 2)) for _ in range(n_vars))] = None
    return SupportSet(tuple(f"V{i}" for i in range(n_vars)), tuple(configs),
                      tuple(range(n_rows)))


def test_theta_refinement_property():
    rng = random.Random(5)
    for _ in range(50):
        sup = random_support(rng)
        p_union = theta(sup, ("V0", "V1"))
        p_single = theta(sup, ("V0",))
        # Every block of the finer partition sits inside one coarser block.
        coarse = {i: b for b in p_single.blocks for i in b}
        for block in p_union.blocks:
            owners = {coarse[i] for i in block}
            assert len(owners) == 1


def test_composition_preserves_shared_variables():
    # Variables fixed inside both relations stay fixed across their join,
    # which is the composition whenever the two commute.
    rng = random.Random(6)
    for _ in range(50):
        sup = random_support(rng)
        p = theta(sup, ("V0", "V1"))
        q = theta(sup, ("V1", "V2"))
        for block in join(p, q).blocks:
            assert len(projected_domain(block, sup, ("V1",))) == 1


def test_theta_matches_agree_pairs():
    # The oracle's blocks are numbered in order of their minimum, so
    # dataclass equality also checks theta's block order.
    rng = random.Random(8)
    for n_vars, n_rows in ((1, 3), (2, 5), (3, 6), (3, 12), (4, 20)):
        for _ in range(10):
            sup = random_support(rng, n_vars, n_rows)
            configs = sup.configs
            for r in range(n_vars + 1):
                for names in combinations(sup.variables, r):
                    positions = [sup.variables.index(v) for v in names]
                    pairs = oracles.agree_pairs(configs, positions)
                    expected = oracles.components(pairs, len(sup))
                    assert theta(sup, names) == oracles.partition_of(len(sup), expected)


_SUP = SupportSet(("A", "B"), (("0", "0"), ("0", "1")), (0, 1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: theta(_SUP, ("A", "C")),
        lambda: restrict_context(_SUP, {"C": "0"}),
        lambda: projected_domain({0, 1}, _SUP, ("C",)),
        lambda: SupportSet(("A", "B"), (("0",),), (0,)),
        lambda: SupportSet(("A", "B"), (("0", "0"), ("0", "1")), (0,)),
    ],
    ids=[
        "theta-unknown",
        "restrict-unknown",
        "domain-unknown",
        "row-arity",
        "positions-length",
    ],
)
def test_schema_errors(make):
    with pytest.raises(SchemaError):
        make()
