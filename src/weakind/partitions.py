"""Equivalence relations on support sets and their composition.

A support lists configurations and their positions in their table's rows; its
indices run densely from 0, and row ``i`` is labelled ``t{positions[i] + 1}``, so
certificates stay readable after a context restriction re-indexes the rows.

``theta`` is a support's one cached grouping: context restriction reads the
context's block, projected domains and the class checks its ids and keys.
``projector`` is the package's one row projector, used by ``theta``, the strong
check, table validation and ``granular``'s nest; it yields values in schema order.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from ._frozen import Frozen
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


class SupportSet(Frozen):
    """Ordered, indexed list of distinct positive-probability configurations, each
    with its position in its table's rows; a table's own support holds ``0 .. n-1``."""

    _fields = ("variables", "configs", "positions")
    variables: tuple[str, ...]
    configs: tuple[Config, ...]
    positions: tuple[int, ...]
    thetas: dict[frozenset[str], Partition]  # ``theta`` per variable set, kept by it

    def __init__(self, variables: tuple[str, ...], configs: tuple[Config, ...],
                 positions: tuple[int, ...]) -> None:
        if not set(map(len, configs)) <= {len(variables)}:
            raise SchemaError("support row arity does not match variables")
        if len(positions) != len(configs):
            raise SchemaError("support positions do not match its rows")
        vars(self).update(variables=variables, configs=configs, positions=positions, thetas={})

    def __len__(self) -> int:
        return len(self.configs)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``t1``, ``t2``, ... by table position, made once per support."""
        return tuple(f"t{p + 1}" for p in self.positions)

    def label_block(self, block: Iterable[int]) -> tuple[str, ...]:
        return tuple(map(self.labels.__getitem__, sorted(block)))


class Partition(Frozen):
    """A partition of the support indices ``0 .. n-1`` as a block-id array.

    ``ids[i]`` is index i's block number, with blocks numbered from 0 in
    order of their minimum, so equal partitions have equal ``ids``.
    ``blocks`` lists the same blocks as sets of indices, in that order.
    ``keys[b]`` is a ``theta`` block's values (``None`` for a ``join``), not a field.
    """

    _fields = ("ids",)
    ids: tuple[int, ...]
    keys: tuple[Config, ...] | None

    def __init__(self, ids: tuple[int, ...], keys: tuple[Config, ...] | None = None) -> None:
        vars(self).update(ids=ids, keys=keys)

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def blocks(self) -> tuple[frozenset[int], ...]:
        groups: dict[int, list[int]] = {}
        for i, b in enumerate(self.ids):
            groups.setdefault(b, []).append(i)
        return tuple(map(frozenset, groups.values()))


class CommutationResult(NamedTuple):
    commutes: bool
    join: Partition | None
    witness: tuple[int, int] | None  # pair present in exactly one composition


def theta(support: SupportSet, names: Iterable[str]) -> Partition:
    """Partition grouping indices whose configs agree on every variable given.

    The empty variable set yields a single block; the full set yields
    singletons because support configs are distinct. Kept in ``support.thetas``
    per variable set, it is built once whatever the order of the names.
    """
    names = frozenset(names)
    if names not in support.thetas:
        key, numbers = projector(support.variables, names), {}  # by first occurrence
        ids = tuple([numbers.setdefault(k, len(numbers)) for k in map(key, support.configs)])
        support.thetas[names] = Partition(ids, tuple(numbers))
    return support.thetas[names]


def restrict_context(support: SupportSet, context: Mapping[str, str]) -> SupportSet:
    """Sub-support of rows matching a partial configuration: its ``theta`` block.

    Rows are re-indexed densely but keep their table positions, so their labels.
    A context value outside the variable's observed range simply matches nothing.
    """
    if not context:
        return support
    part = theta(support, context)
    wanted = tuple(context[n] for n in support.variables if n in context)
    rows = sorted(part.blocks[part.keys.index(wanted)]) if wanted in part.keys else ()
    return SupportSet(support.variables, tuple(map(support.configs.__getitem__, rows)),
                      tuple(map(support.positions.__getitem__, rows)))


def join(p: Partition, q: Partition) -> Partition:
    """Finest partition coarser than both, by union-find over the |p| + |q|
    block ids: q-block b is node |p| + b."""
    if p.n != q.n:
        raise SchemaError("partitions are over different supports")
    offset = max(p.ids, default=-1) + 1
    parent = list(range(offset + max(q.ids, default=-1) + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(p.ids, q.ids):
        ra, rb = find(a), find(offset + b)
        if ra != rb:
            parent[rb] = ra
    # p-blocks come in order of their minimum, so numbering the roots in
    # p-block order numbers the join blocks in order of their minimum.
    numbers: dict[int, int] = {}
    number = [numbers.setdefault(find(a), len(numbers)) for a in range(offset)]
    return Partition(tuple(map(number.__getitem__, p.ids)))


def commutes(p: Partition, q: Partition) -> CommutationResult:
    """Test whether the two compositions coincide as pair sets.

    Rectangle test (Ore 1942), linear in n: they coincide iff, inside every
    join block, each p-block meets each q-block. A commuting result carries
    the join, the composition in both orders. A failing one carries the
    first pair (i, k), i < k, of sorted members of the first non-rectangular
    join block that lies in exactly one composition, oriented as in p∘q;
    rectangular blocks hold no such pair. Inside a block (i, k) is in p∘q iff
    p-block(i) meets q-block(k), so that i is the first member whose p-block
    misses a q-block of the block or whose q-block misses a p-block (a
    partner before it would be one too): counts find it, one scan its partner.
    """
    joined = join(p, q)
    p_id, q_id = p.ids, q.ids
    for block in joined.blocks:
        cells = {(p_id[i], q_id[i]) for i in block}
        if len(cells) == len({c[0] for c in cells}) * len({c[1] for c in cells}):
            continue
        # Row i has a partner iff its p-block misses a q-block here, or its q-block a p-block.
        per_p, per_q = Counter(map(itemgetter(0), cells)), Counter(map(itemgetter(1), cells))
        members = sorted(block)
        i = next(i for i in members
                 if per_p[p_id[i]] < len(per_q) or per_q[q_id[i]] < len(per_p))
        for k in members:
            fwd = (p_id[i], q_id[k]) in cells
            if fwd != ((p_id[k], q_id[i]) in cells):
                return CommutationResult(False, None, (i, k) if fwd else (k, i))
    return CommutationResult(True, joined, None)


def projected_domain(block: Iterable[int], support: SupportSet,
                     names: Iterable[str]) -> frozenset[Config]:
    """Distinct projections of a class's configs onto a variable subset."""
    part = theta(support, names)
    return frozenset(map(part.keys.__getitem__, map(part.ids.__getitem__, block)))
