"""Equivalence relations on support sets and their composition.

A support lists configurations and their positions in their table's rows; its
indices run densely from 0, and row ``i`` is labelled ``t{positions[i] + 1}``, so
certificates stay readable after a context restriction re-indexes the rows.

``projector`` is the package's one row projector: every reader of a
row's values on a variable subset (``theta``, context restriction,
projected domains, the strong and class checks, table validation and
``granular``'s nest) takes them, in schema order, through it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
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

    def __init__(self, variables: tuple[str, ...], configs: tuple[Config, ...],
                 positions: tuple[int, ...]) -> None:
        if not set(map(len, configs)) <= {len(variables)}:
            raise SchemaError("support row arity does not match variables")
        if len(positions) != len(configs):
            raise SchemaError("support positions do not match its rows")
        vars(self).update(variables=variables, configs=configs, positions=positions)

    def __len__(self) -> int:
        return len(self.configs)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``t1``, ``t2``, ... by table position, made once per support."""
        return tuple(f"t{p + 1}" for p in self.positions)

    def label_block(self, block: Iterable[int]) -> tuple[str, ...]:
        return tuple(map(self.labels.__getitem__, sorted(block)))

    @cached_property
    def thetas(self) -> dict[frozenset[str], Partition]:
        """``theta`` of this support per variable set, filled by ``independence``."""
        return {}


class Partition(Frozen):
    """A partition of the support indices ``0 .. n-1`` as a block-id array.

    ``ids[i]`` is index i's block number, with blocks numbered from 0 in
    order of their minimum, so equal partitions have equal ``ids``.
    ``blocks`` lists the same blocks as sets of indices, in that order.
    """

    _fields = ("ids",)
    ids: tuple[int, ...]

    def __init__(self, ids: tuple[int, ...]) -> None:
        vars(self)["ids"] = ids

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
    singletons because support configs are distinct.
    """
    key = projector(support.variables, names)
    numbers: dict[Config, int] = {}  # by first occurrence: in order of minimum
    return Partition(tuple(numbers.setdefault(key(cfg), len(numbers)) for cfg in support.configs))


def restrict_context(support: SupportSet, context: Mapping[str, str]) -> SupportSet:
    """Sub-support of rows matching a partial configuration.

    Rows are re-indexed densely but keep their table positions, so their labels.
    A context value outside the variable's observed range simply matches nothing.
    """
    if not context:
        return support
    key = projector(support.variables, context)
    wanted = key(tuple(map(context.get, support.variables)))
    matches = [k == wanted for k in map(key, support.configs)]
    return SupportSet(support.variables, tuple(compress(support.configs, matches)),
                      tuple(compress(support.positions, matches)))


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
    rectangular blocks hold no such pair.
    """
    joined = join(p, q)
    p_id, q_id = p.ids, q.ids
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
    key, configs = projector(support.variables, names), support.configs
    return frozenset(key(configs[i]) for i in block)
