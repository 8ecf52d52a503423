"""Equivalence relations on support sets and their composition.

Support rows are indexed densely from 0 and keep their original text labels
(``t1``, ``t2``, ...) so that certificates stay readable after a context
restriction re-indexes the rows.

``projector`` is the package's one row projector: every reader of a
row's values on a variable subset (``theta``, context restriction,
projected domains, the strong and class checks, table validation and
``granular``'s nest) takes them, in schema order, through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import SchemaError

Config = tuple[str, ...]


def projector(
    variables: Sequence[str], names: Iterable[str]
) -> Callable[[Sequence], tuple]:
    """``row -> row's values on names``, in ``variables`` order, as a tuple.

    ``variables`` names the row's columns; a name outside it raises
    ``SchemaError``.
    """
    wanted = set(names)
    unknown = wanted.difference(variables)
    if unknown:
        raise SchemaError(f"unknown variables: {sorted(unknown)}")
    positions = [i for i, v in enumerate(variables) if v in wanted]
    if len(positions) == 1:
        return lambda row, i=positions[0]: (row[i],)
    return itemgetter(*positions) if positions else lambda row: ()


@dataclass(frozen=True)
class SupportSet:
    """Ordered, indexed list of distinct positive-probability configurations."""

    variables: tuple[str, ...]
    rows: tuple[tuple[str, Config], ...]  # (label, config), index = position

    def __post_init__(self) -> None:
        for _, cfg in self.rows:
            if len(cfg) != len(self.variables):
                raise SchemaError("support row arity does not match variables")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.rows)

    def label_block(self, block: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.rows[i][0] for i in sorted(block))


@dataclass(frozen=True)
class Partition:
    """Blocks of support indices, canonically ordered by minimum element."""

    n: int
    blocks: tuple[frozenset[int], ...]

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        frozen = [frozenset(b) for b in blocks]
        if not all(frozen):
            raise SchemaError("empty partition block")
        frozen.sort(key=min)
        covered: set[int] = set()
        for b in frozen:
            if covered & b:
                raise SchemaError("partition blocks overlap")
            covered |= b
        if covered != set(range(n)):
            raise SchemaError("partition blocks do not cover the index range")
        return cls(n, tuple(frozen))


@dataclass(frozen=True)
class CommutationResult:
    commutes: bool
    join: Partition | None
    witness: tuple[int, int] | None  # pair present in exactly one composition


def theta(support: SupportSet, names: Iterable[str]) -> Partition:
    """Partition grouping indices whose configs agree on every variable given.

    The empty variable set yields a single block; the full set yields
    singletons because support configs are distinct.
    """
    key = projector(support.variables, names)
    groups: dict[Config, list[int]] = {}
    for i, (_, cfg) in enumerate(support.rows):
        groups.setdefault(key(cfg), []).append(i)
    # First-seen groups are disjoint, cover every index and come ordered by
    # their minimum, so they need no re-check by ``from_blocks``.
    return Partition(len(support), tuple(map(frozenset, groups.values())))


def restrict_context(support: SupportSet, context: Mapping[str, str]) -> SupportSet:
    """Sub-support of rows matching a partial configuration.

    Rows are re-indexed densely but keep their original labels. A context
    value outside the variable's observed range simply matches nothing.
    """
    if not context:
        return support
    key = projector(support.variables, context)
    wanted = key(tuple(map(context.get, support.variables)))
    rows = tuple(row for row in support.rows if key(row[1]) == wanted)
    return SupportSet(support.variables, rows)


def join(p: Partition, q: Partition) -> Partition:
    """Finest partition coarser than both (transitive-closure join)."""
    return _join(p, q, _block_ids(p), _block_ids(q))


def _block_ids(part: Partition) -> list[int]:
    """Each support index's block number in ``part``."""
    ids = [0] * part.n
    for b, block in enumerate(part.blocks):
        for i in block:
            ids[i] = b
    return ids


def _join(p: Partition, q: Partition, p_id: list[int], q_id: list[int]) -> Partition:
    """``join`` from each index's p- and q-block number, by union-find over
    the |p| + |q| block ids: q-block b is node |p| + b."""
    if p.n != q.n:
        raise SchemaError("partitions are over different supports")
    offset = len(p.blocks)
    parent = list(range(offset + len(q.blocks)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(p_id, q_id):
        ra, rb = find(a), find(offset + b)
        if ra != rb:
            parent[rb] = ra
    root = [find(a) for a in range(offset)]
    groups: dict[int, list[int]] = {}
    for i, a in enumerate(p_id):
        groups.setdefault(root[a], []).append(i)
    return Partition(p.n, tuple(map(frozenset, groups.values())))


def commutes(p: Partition, q: Partition) -> CommutationResult:
    """Test whether the two compositions coincide as pair sets.

    Rectangle test (Ore 1942), linear in n: they coincide iff, inside every
    join block, each p-block meets each q-block. A commuting result carries
    the join, the composition in both orders. A failing one carries the
    first pair (i, k), i < k, of sorted members of the first non-rectangular
    join block that lies in exactly one composition, oriented as in p∘q;
    rectangular blocks hold no such pair.
    """
    p_id, q_id = _block_ids(p), _block_ids(q)
    joined = _join(p, q, p_id, q_id)
    for block in joined.blocks:
        cells = {(p_id[i], q_id[i]) for i in block}
        if len(cells) == len({c[0] for c in cells}) * len({c[1] for c in cells}):
            continue
        # (i, k) is in p∘q iff p-block(i) meets q-block(k) inside this block.
        members = sorted(block)
        for a, i in enumerate(members):
            for k in members[a + 1 :]:
                fwd = (p_id[i], q_id[k]) in cells
                if fwd != ((p_id[k], q_id[i]) in cells):
                    return CommutationResult(False, None, (i, k) if fwd else (k, i))
    return CommutationResult(True, joined, None)


def projected_domain(
    block: Iterable[int], support: SupportSet, names: Iterable[str]
) -> frozenset[Config]:
    """Distinct projections of a class's configs onto a variable subset."""
    key, rows = projector(support.variables, names), support.rows
    return frozenset(key(rows[i][1]) for i in block)
