"""Equivalence relations on support sets and their composition.

Support rows are indexed densely from 0 and keep their original text labels
(``t1``, ``t2``, ...) so that certificates stay readable after a context
restriction re-indexes the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import SchemaError

Config = tuple[str, ...]


@dataclass(frozen=True)
class SupportSet:
    """Ordered, indexed list of positive-probability configurations."""

    variables: tuple[str, ...]
    rows: tuple[tuple[str, Config], ...]  # (label, config), index = position

    def __post_init__(self) -> None:
        seen: set[Config] = set()
        for _, cfg in self.rows:
            if len(cfg) != len(self.variables):
                raise SchemaError("support row arity does not match variables")
            if cfg in seen:
                raise SchemaError(f"duplicate configuration in support: {cfg}")
            seen.add(cfg)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.rows)

    def positions(self, names: Iterable[str]) -> tuple[int, ...]:
        """Schema-order column positions of ``names``."""
        wanted = set(names)
        unknown = wanted - set(self.variables)
        if unknown:
            raise SchemaError(f"unknown variables: {sorted(unknown)}")
        return tuple(i for i, v in enumerate(self.variables) if v in wanted)

    def project(self, index: int, positions: tuple[int, ...]) -> Config:
        cfg = self.rows[index][1]
        return tuple(cfg[p] for p in positions)

    def label_block(self, block: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.rows[i][0] for i in sorted(block))


@dataclass(frozen=True)
class Partition:
    """Blocks of support indices, canonically ordered by minimum element."""

    n: int
    blocks: tuple[frozenset[int], ...]

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        frozen = sorted((frozenset(b) for b in blocks), key=min)
        covered: set[int] = set()
        for b in frozen:
            if not b:
                raise SchemaError("empty partition block")
            if covered & b:
                raise SchemaError("partition blocks overlap")
            covered |= b
        if covered != set(range(n)):
            raise SchemaError("partition blocks do not cover the index range")
        return cls(n, tuple(frozen))

    def block_of(self) -> dict[int, frozenset[int]]:
        return {i: b for b in self.blocks for i in b}


@dataclass(frozen=True)
class CommutationResult:
    commutes: bool
    join: Partition | None
    witness: tuple[int, int] | None  # pair present in exactly one composition


class _UnionFind:
    """Union-find with path compression over indices 0..n-1."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri

    def blocks(self) -> tuple[frozenset[int], ...]:
        groups: dict[int, set[int]] = {}
        for i in range(len(self.parent)):
            groups.setdefault(self.find(i), set()).add(i)
        return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def theta(support: SupportSet, names: Iterable[str]) -> Partition:
    """Partition grouping indices whose configs agree on every variable given.

    The empty variable set yields a single block; the full set yields
    singletons because support configs are distinct.
    """
    positions = support.positions(names)
    groups: dict[Config, list[int]] = {}
    for i in range(len(support)):
        groups.setdefault(support.project(i, positions), []).append(i)
    return Partition.from_blocks(len(support), groups.values())


def restrict_context(support: SupportSet, context: Mapping[str, str]) -> SupportSet:
    """Sub-support of rows matching a partial configuration.

    Rows are re-indexed densely but keep their original labels. A context
    value outside the variable's observed range simply matches nothing.
    """
    if not context:
        return support
    positions = support.positions(context)
    wanted = tuple(context[support.variables[p]] for p in positions)
    rows = tuple(
        (label, cfg)
        for i, (label, cfg) in enumerate(support.rows)
        if support.project(i, positions) == wanted
    )
    return SupportSet(support.variables, rows)


def join(p: Partition, q: Partition) -> Partition:
    """Finest partition coarser than both (transitive-closure join)."""
    if p.n != q.n:
        raise SchemaError("partitions are over different supports")
    uf = _UnionFind(p.n)
    for blocks in (p.blocks, q.blocks):
        for b in blocks:
            it = iter(sorted(b))
            first = next(it)
            for other in it:
                uf.union(first, other)
    return Partition(p.n, uf.blocks())


def commutes(p: Partition, q: Partition) -> CommutationResult:
    """Test whether the two compositions coincide as pair sets.

    Fast path: the compositions are equal iff p∘q already equals the lattice
    join of p and q, so it suffices to look for a join-block pair without a
    middle element instead of materializing both O(n^2) relations.
    """
    if p.n != q.n:
        raise SchemaError("partitions are over different supports")
    p_block = p.block_of()
    q_block = q.block_of()
    joined = join(p, q)

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
    # No asymmetric pair means the composition is symmetric, which forces it
    # to be an equivalence relation equal to the join in both orders.
    return CommutationResult(True, joined, None)


def projected_domain(
    block: Iterable[int], support: SupportSet, names: Iterable[str]
) -> frozenset[Config]:
    """Distinct projections of a class's configs onto a variable subset."""
    positions = support.positions(names)
    return frozenset(support.project(i, positions) for i in block)
