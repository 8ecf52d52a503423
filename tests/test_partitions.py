import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakind import partitions
from weakind.errors import SchemaError
from weakind.partitions import (
    Partition,
    SupportSet,
    commutes,
    join,
    projected_domain,
    restrict_context,
    theta,
)

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


def test_restrict_context(cwi_cpt):
    sup = cwi_cpt.support()
    restricted = restrict_context(sup, {"Y": "0"})
    assert restricted.labels == tuple(f"t{i}" for i in range(1, 13))
    assert restrict_context(sup, {}) is sup
    assert len(restrict_context(sup, {"Y": "2"})) == 0


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
    p = Partition.from_blocks(4, [{0, 1}, {2, 3}])
    result = commutes(p, p)
    assert result.commutes and result.join == p


def test_noncommuting_three_elements():
    # p = {{a,b},{c}}, q = {{a},{b,c}}: the compositions differ, e.g. the
    # pair (a, c) has a middle element one way round but not the other.
    p = Partition.from_blocks(3, [{0, 1}, {2}])
    q = Partition.from_blocks(3, [{0}, {1, 2}])
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
    p = Partition.from_blocks(3, [{0, 1}, {2}])
    q = Partition.from_blocks(4, [{0}, {1, 2, 3}])
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


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    labels_p = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    labels_q = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]

    def to_partition(labels):
        groups = {}
        for i, lab in enumerate(labels):
            groups.setdefault(lab, set()).add(i)
        return Partition.from_blocks(n, groups.values())

    return to_partition(labels_p), to_partition(labels_q)


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


def random_support(rng, n_vars=3, n_rows=6):
    seen = set()
    rows = []
    while len(rows) < n_rows:
        cfg = tuple(str(rng.randint(0, 2)) for _ in range(n_vars))
        if cfg not in seen:
            seen.add(cfg)
            rows.append((f"t{len(rows) + 1}", cfg))
    return SupportSet(tuple(f"V{i}" for i in range(n_vars)), tuple(rows))


def test_theta_refinement_property():
    rng = random.Random(5)
    for _ in range(50):
        sup = random_support(rng)
        p_union = theta(sup, ("V0", "V1"))
        p_single = theta(sup, ("V0",))
        # Every block of the finer partition sits inside one coarser block.
        coarse = p_single.block_of()
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
        pos = sup.positions(("V1",))
        for block in join(p, q).blocks:
            assert len({sup.project(i, pos) for i in block}) == 1
