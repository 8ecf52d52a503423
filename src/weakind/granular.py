"""Coarsening and refinement of distributions via nested attributes.

``nest`` folds a set of attributes into a single nested attribute whose
cells are normalized sub-distributions; ``unnest`` expands a nested
attribute back out, multiplying outer and inner probabilities exactly.
Grouping during a nest compares entire remaining-attribute values, so
previously nested cells participate in the grouping key. A plain attribute
is a ``tables.Variable``, checked as a table's is; an ``Attribute`` is a
nested one. A nested cell is identified by its gcd-reduced integer weights,
so that comparison is on integers; a cell's sorted ``Fraction`` rows are
built only when read. ``nest`` is the one nest builder: ``nest_commutes``
decides on integer weights alone, and its report nests through ``nest``.

All equality here is exact; there is no tolerance parameter anywhere in
this module.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

from . import independence
from ._frozen import Frozen
from .errors import NormalizationError, ParseError, SchemaError
from .partitions import projector
from .tables import (
    JOINT,
    Table,
    Variable,
    VariableSchema,
    _json_list,
    _parse_json,
    _read_source,
    _to_fraction,
    common_weights,
    frac_str,
    mass_sum,
    uniform_joint_extension,
    write_json,
)

CellValue = Union[str, "NestedCell"]
RowKey = tuple  # tuple[CellValue, ...]
AnyAttribute = Union[Variable, "Attribute"]  # a plain attribute or a nested one


class Attribute(Frozen):
    """A nested attribute: a name over inner attributes, each a ``Variable`` or nested."""

    _fields = ("name", "nested")
    name: str
    nested: tuple[AnyAttribute, ...]

    def __init__(self, name: str, nested: tuple[AnyAttribute, ...]) -> None:
        vars(self).update(name=name, nested=nested)


class NestedCell(Frozen):
    """A normalized sub-distribution stored inside one outer row.

    ``NestedCell(attributes, rows)`` takes a mapping from inner key to
    probability: zero entries are dropped, and the rest must be nonnegative
    and sum to 1. Its identity is its attributes and one integer weight per
    inner key, reduced by their gcd: two cells are equal iff those maps are,
    and the hash is computed once from them. ``rows``, the probabilities in
    canonical (sorted) order, is built from the weights on first read.
    """

    __slots__ = ("attributes", "weights", "_hash", "_rows")
    attributes: tuple[AnyAttribute, ...]
    weights: Mapping[RowKey, int]
    _hash: int
    _rows: tuple[tuple[RowKey, Fraction], ...] | None

    def __init__(self, attributes: tuple[AnyAttribute, ...], rows: Mapping) -> None:
        lcm, weights = common_weights(rows.values())
        if any(w < 0 for w in weights):
            raise SchemaError("nested cell values must not be negative")
        if sum(weights) != lcm:
            raise SchemaError(f"nested cell values sum to {mass_sum(rows.values())}, not 1")
        self._set(attributes, {key: w for key, w in zip(rows, weights) if w})

    def _set(self, attributes, weights: dict[RowKey, int]) -> None:
        g = math.gcd(*weights.values())  # identity is the weights over their gcd
        if g != 1:
            weights = {key: w // g for key, w in weights.items()}
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_hash", hash(frozenset(weights.items())))
        object.__setattr__(self, "_rows", None)

    @classmethod
    def _of(cls, attributes: tuple[AnyAttribute, ...], weights: dict) -> "NestedCell":
        """A cell from nonzero integer weights, in any order and at any scale."""
        cell = object.__new__(cls)
        cell._set(attributes, weights)
        return cell

    # For pickle and copy: the hash is made again, as a str hash differs between runs.
    def __getstate__(self) -> tuple:
        return self.attributes, self.weights

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)

    @property
    def rows(self) -> tuple[tuple[RowKey, Fraction], ...]:
        if self._rows is None:
            total = sum(self.weights.values())
            rows = tuple(
                (key, Fraction(self.weights[key], total))
                for key in sorted(self.weights, key=_row_sort_key)
            )
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NestedCell):
            return NotImplemented
        return self.weights == other.weights and self.attributes == other.attributes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"NestedCell(attributes={self.attributes!r}, rows={self.rows!r})"


def _repeats_a_name(attributes: tuple[AnyAttribute, ...]) -> bool:
    """Whether a name repeats among ``attributes`` or among the inner attributes
    of any nested one, at any depth."""
    names = {a.name for a in attributes}
    return len(names) != len(attributes) or any(
        _repeats_a_name(a.nested) for a in attributes if isinstance(a, Attribute)
    )


def _check_cell(cell: CellValue, attr: AnyAttribute) -> None:
    """A cell must fit its attribute; a nested cell's inner keys must fit the
    inner attributes, recursively. ``NestedCell`` makes every cell canonical."""
    if isinstance(attr, Variable):
        if not isinstance(cell, str):
            raise SchemaError(f"cell for attribute {attr.name!r} must be a value")
        if cell not in attr.domain:
            raise SchemaError(f"value {cell!r} outside domain of attribute {attr.name!r}")
        return
    if not isinstance(cell, NestedCell):
        raise SchemaError(f"cell for attribute {attr.name!r} must be nested")
    if cell.attributes != attr.nested:
        raise SchemaError(f"cell attributes differ from those of {attr.name!r}")
    for inner_key in cell.weights:
        if not isinstance(inner_key, tuple):
            raise SchemaError(f"nested row key in {attr.name!r} must be a tuple")
        if len(inner_key) != len(attr.nested):
            raise SchemaError(f"nested row arity mismatch in {attr.name!r}")
        for inner_cell, inner_attr in zip(inner_key, attr.nested):
            _check_cell(inner_cell, inner_attr)


def _row_sort_key(key: RowKey) -> tuple:
    return tuple(_value_sort_key(v) for v in key)


def _value_sort_key(value: CellValue) -> tuple:
    if isinstance(value, str):
        return ("s", value)
    return (
        "c",
        tuple((_row_sort_key(k), (v.numerator, v.denominator)) for k, v in value.rows),
    )


class NestedTable(Frozen):
    """Rows keyed by mixed plain/nested cell values, with exact probabilities."""

    _fields = ("attributes", "rows")
    attributes: tuple[AnyAttribute, ...]
    rows: Mapping[RowKey, Fraction]

    def __init__(self, attributes: tuple[AnyAttribute, ...],
                 rows: Mapping[RowKey, Fraction]) -> None:
        vars(self).update(attributes=attributes, rows=rows)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields ``__init__`` stored; its own method, so that the bench's
        tracer can time it as ``granular.build``."""
        if _repeats_a_name(self.attributes):
            raise SchemaError("duplicate attribute names")
        cleaned: dict[RowKey, Fraction] = {}
        for key, value in self.rows.items():
            key = key if type(key) is tuple else tuple(key)
            if len(key) != len(self.attributes):
                raise SchemaError("row arity does not match attributes")
            for cell, attr in zip(key, self.attributes):
                _check_cell(cell, attr)
            if not (type(value) is Fraction and value.numerator >= 0):
                value = _to_fraction(value)  # which refuses a negative value
            if key in cleaned:
                raise SchemaError(f"duplicate row: {key}")
            if value > 0:
                cleaned[key] = value
        vars(self)["rows"] = cleaned

    @classmethod
    def _built(
        cls, attributes: tuple[AnyAttribute, ...], rows: dict[RowKey, Fraction]
    ) -> "NestedTable":
        """A table from rows this module built, skipping ``__init__``'s checks.

        The caller guarantees what it would check: distinct attribute names,
        keys whose cells fit the attributes, and positive ``Fraction`` values.
        ``rows``, which may be a joint ``Table``'s own, is never mutated.
        """
        table = object.__new__(cls)
        vars(table).update(attributes=attributes, rows=rows)
        return table

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def total_mass(self) -> Fraction:
        return mass_sum(self.rows.values())

    def to_json_dict(self) -> dict:
        return {
            "attributes": [_attribute_to_json(a) for a in self.attributes],
            "rows": [
                {
                    "cells": [_cell_to_json(v) for v in key],
                    "p": frac_str(self.rows[key]),
                }
                for key in sorted(self.rows, key=_row_sort_key)
            ],
        }


def _attribute_to_json(attr: AnyAttribute) -> dict:
    if isinstance(attr, Variable):
        return {"name": attr.name, "domain": list(attr.domain)}
    return {"name": attr.name, "nested": [_attribute_to_json(a) for a in attr.nested]}


def _cell_to_json(value: CellValue):
    if isinstance(value, str):
        return value
    return [
        {"config": [_cell_to_json(v) for v in key], "P(Y)": frac_str(p)}
        for key, p in value.rows
    ]


def as_nested(table: Table | NestedTable) -> NestedTable:
    """A joint table as a nested one of plain attributes, sharing its rows."""
    if isinstance(table, NestedTable):
        return table
    return NestedTable._built(_plain_attributes(table), table.rows)


def _plain_attributes(table: Table) -> tuple[Variable, ...]:
    if table.kind != JOINT:
        raise SchemaError("only joint tables can be coarsened directly")
    return table.schema.variables


def _weighted(table: Table | NestedTable) -> tuple[tuple[AnyAttribute, ...], int, list[int]]:
    """Attributes, ``L`` and the rows' weights over ``L`` in row order: ``Table.weights``."""
    if isinstance(table, NestedTable):
        return table.attributes, *common_weights(table.rows.values())
    return _plain_attributes(table), *table.weights


def nest(
    table: Table | NestedTable, b_name: str, names: Iterable[str]
) -> NestedTable:
    """Coarsen the given attributes into a fresh nested attribute.

    One output row is produced per distinct value of the remaining
    attributes; its outer probability is the exact group sum and its cell
    holds the group's projections with probabilities normalized by that sum.
    The new attribute takes the position of the first coarsened attribute.
    Groups are summed, and cells made, on the rows' integer weights.
    """
    attributes, lcm, weights = _weighted(table)
    wanted = set(names)
    order = [a.name for a in attributes]
    present = set(order)
    if not wanted:
        raise SchemaError("cannot nest an empty attribute set")
    if wanted - present:
        raise SchemaError(f"unknown attributes: {sorted(wanted - present)}")
    if b_name in present:
        raise SchemaError(f"attribute name {b_name!r} already in use")
    outer_of, inner_of = projector(order, present - wanted), projector(order, wanted)
    inner_attrs = inner_of(attributes)
    insert_at = order.index(inner_attrs[0].name)

    # Input keys are distinct, so each (outer, inner) split occurs once.
    groups: dict[RowKey, dict[RowKey, int]] = {}
    for key, w in zip(table.rows, weights):
        groups.setdefault(outer_of(key), {})[inner_of(key)] = w

    new_attrs = list(outer_of(attributes))
    new_attrs.insert(insert_at, Attribute(b_name, inner_attrs))
    nested: dict[RowKey, Fraction] = {}
    for outer, bucket in groups.items():
        key = outer[:insert_at] + (NestedCell._of(inner_attrs, bucket),) + outer[insert_at:]
        nested[key] = Fraction(sum(bucket.values()), lcm)
    return NestedTable._built(tuple(new_attrs), nested)


def unnest(table: NestedTable, b_name: str) -> Table | NestedTable:
    """Reveal a nested attribute, multiplying outer and inner probabilities.

    Rows that coincide after expansion are summed. Returns a plain joint
    table when no nested attributes remain.
    """
    try:
        position = table.names.index(b_name)
    except ValueError:
        raise SchemaError(f"unknown attribute {b_name!r}") from None
    attr = table.attributes[position]
    if isinstance(attr, Variable):
        raise SchemaError(f"attribute {b_name!r} is not nested")
    inner_attrs = attr.nested
    remaining = [a.name for i, a in enumerate(table.attributes) if i != position]
    for inner in inner_attrs:
        if inner.name in remaining:
            raise SchemaError(
                f"revealed attribute {inner.name!r} collides with an existing one"
            )
    new_attrs = (
        table.attributes[:position] + inner_attrs + table.attributes[position + 1 :]
    )
    rows: dict[RowKey, Fraction] = {}
    for key, outer_p in table.rows.items():
        cell = key[position]
        assert isinstance(cell, NestedCell)
        for inner_key, inner_p in cell.rows:
            new_key = key[:position] + inner_key + key[position + 1 :]
            mass = outer_p * inner_p
            seen = rows.get(new_key)
            rows[new_key] = mass if seen is None else seen + mass
    if any(isinstance(a, Attribute) for a in new_attrs):
        return NestedTable._built(new_attrs, rows)
    return Table._built(VariableSchema(new_attrs), rows, JOINT)


def canonical_equal(a: Table | NestedTable, b: Table | NestedTable) -> bool:
    """Equality up to attribute order, after canonicalization of all cells."""
    na, nb = as_nested(a), as_nested(b)
    by_name_a = {attr.name: attr for attr in na.attributes}
    by_name_b = {attr.name: attr for attr in nb.attributes}
    if set(by_name_a) != set(by_name_b):
        return False
    if any(by_name_a[n] != by_name_b[n] for n in by_name_a):
        return False
    perm = [nb.names.index(n) for n in na.names]
    aligned = {}
    for key, value in nb.rows.items():
        aligned[tuple(key[p] for p in perm)] = value
    return dict(na.rows) == aligned


class NestCommutationReport(Frozen):
    """Whether nesting X as ``B1`` and Z as ``B2`` commutes on ``table``. ``first`` (nest
    Z, then X) and ``second`` (X, then Z) are built through ``nest`` only when read."""

    _fields = ("equal", "table", "x", "z")
    equal: bool
    table: Table | NestedTable
    x: frozenset[str]
    z: frozenset[str]

    def __init__(self, equal: bool, table: Table | NestedTable, x: frozenset[str],
                 z: frozenset[str]) -> None:
        vars(self).update(equal=equal, table=table, x=x, z=z)

    first = cached_property(lambda self: nest(nest(self.table, "B2", self.z), "B1", self.x))
    second = cached_property(lambda self: nest(nest(self.table, "B1", self.x), "B2", self.z))

    def to_json_dict(self) -> dict:
        return {
            "equal": self.equal,
            "first": self.first.to_json_dict(),
            "second": self.second.to_json_dict(),
        }


def nest_commutes(
    table: Table | NestedTable, x: Iterable[str], z: Iterable[str]
) -> NestCommutationReport:
    """Whether nesting disjoint attribute sets X (as ``B1``) and Z (as ``B2``) commutes.

    Either order's rows are a Y value, an X cell and a Z cell. Nesting Z first makes
    a Z cell of each (X, Y) group, then an X cell of each (Z cell, Y) group; nesting
    X first swaps the roles. One pass over the integer weights builds no cell and reads
    no name: ``B1`` and ``B2`` label only the report's tables, checked as they are built."""
    xs, zs = set(x), set(z)
    if not xs or not zs:
        raise SchemaError("both attribute sets must be nonempty")
    if xs & zs:
        raise SchemaError("attribute sets overlap")
    attributes, _, weights = _weighted(table)
    order = [a.name for a in attributes]
    present = set(order)
    for names in (zs, xs):
        if names - present:
            raise SchemaError(f"unknown attributes: {sorted(names - present)}")
    x_of, y_of, z_of = (projector(order, s) for s in (xs, present - xs - zs, zs))
    by_xy, by_zy = {}, {}
    for key, w in zip(table.rows, weights):
        x_key, y_key, z_key = x_of(key), y_of(key), z_of(key)
        by_xy.setdefault((x_key, y_key), {})[z_key] = w
        by_zy.setdefault((z_key, y_key), {})[x_key] = w
    equal = _nested_masses(by_xy, False) == _nested_masses(by_zy, True)
    return NestCommutationReport(equal, table, frozenset(xs), frozenset(zs))


def _nested_masses(buckets: dict, flip: bool) -> dict:
    """Nest ``{(outer, y): {inner: weight}}`` twice, cells as their reduced weights: a
    map of (y, outer cell, inner cell), or (y, inner cell, outer cell) with ``flip``, to mass."""
    groups = {}
    for (outer, y), bucket in buckets.items():
        groups.setdefault((_cell_key(bucket), y), {})[outer] = sum(bucket.values())
    return {(y, inner, _cell_key(g)) if flip else (y, _cell_key(g), inner): sum(g.values())
            for (inner, y), g in groups.items()}


def _cell_key(weights: dict[RowKey, int]) -> frozenset:
    """A bucket's weights over their gcd, as ``NestedCell`` identifies a cell."""
    g = math.gcd(*weights.values())
    return frozenset(weights.items() if g == 1 else ((k, w // g) for k, w in weights.items()))


class EquivalenceReport(NamedTuple):
    """Agreement between the weak-independence verdict and nest commutativity."""

    wi_holds: bool
    nests_commute: bool
    converted: bool
    verdict: independence.Verdict
    commutation: NestCommutationReport

    @property
    def agree(self) -> bool:
        return self.wi_holds == self.nests_commute

    def to_json_dict(self) -> dict:
        doc = {
            "wi_holds": self.wi_holds,
            "nests_commute": self.nests_commute,
            "agree": self.agree,
            "converted_to_joint": self.converted,
            "verdict": self.verdict.to_json_dict(),
        }
        if not self.agree:
            doc["finding"] = "BUG: weak independence and nest commutativity disagree"
            doc["commutation"] = self.commutation.to_json_dict()
        return doc


def wi_nest_equivalence(
    table: Table, x: Iterable[str], z: Iterable[str], y: Iterable[str]
) -> EquivalenceReport:
    """Check that weak independence coincides with nest commutativity.

    Conditional-shaped tables are first extended to a joint table with a
    uniform prior over their supported given-configurations; the report
    records the conversion.
    """
    converted = table.kind != JOINT
    joint = uniform_joint_extension(table)
    verdict = independence.check_wi(joint, x, z, y)
    commutation = nest_commutes(joint, x, z)
    return EquivalenceReport(
        verdict.holds, commutation.equal, converted, verdict, commutation
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_nested(table: NestedTable) -> str:
    return write_json(table.to_json_dict()) + "\n"


def load_nested(text: str | bytes) -> NestedTable:
    return _load_nested(_parse_json(_read_source(text)))


def _load_nested(doc: object) -> NestedTable:
    """``load_nested`` of a parsed document: its rows and cells are read, nested
    cells through ``NestedCell(...)``, and checked by the public ``NestedTable(...)``."""
    if not isinstance(doc, dict) or "attributes" not in doc:
        raise ParseError("nested table document requires an 'attributes' field")
    attributes = tuple(_attribute_from_json(a) for a in _json_list(doc, "attributes"))
    rows: dict[RowKey, Fraction] = {}
    for entry in _json_list(doc, "rows") if "rows" in doc else ():
        try:
            cells = _json_list(entry, "cells")
            prob = entry["p"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed row entry: {entry!r}") from exc
        if len(cells) != len(attributes):
            raise ParseError("row arity does not match attributes")
        key = tuple(_cell_from_json(cell, attr) for cell, attr in zip(cells, attributes))
        if key in rows:
            raise SchemaError(f"duplicate row: {key}")
        rows[key] = _to_fraction(prob)
    table = NestedTable(attributes, rows)
    total = table.total_mass()
    if total != 1:
        raise NormalizationError(f"nested document probabilities sum to {total}, not 1")
    return table


def _attribute_from_json(doc: Mapping) -> AnyAttribute:
    """A nested attribute, or a plain one read and checked as a table's variable."""
    try:
        name = str(doc["name"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed attribute: {exc}") from exc
    if "nested" in doc:
        inner = _json_list(doc, "nested")
        return Attribute(name, tuple(_attribute_from_json(a) for a in inner))
    if "domain" in doc:
        return Variable(name, tuple(str(d) for d in _json_list(doc, "domain")))
    raise ParseError(f"attribute {name!r} needs either a domain or nested attributes")


def _cell_from_json(value, attr: AnyAttribute) -> CellValue:
    if isinstance(attr, Variable):
        if not isinstance(value, str):
            raise ParseError(f"cell for plain attribute {attr.name!r} must be a string")
        return value
    if not isinstance(value, list):
        raise ParseError(f"cell for nested attribute {attr.name!r} must be a list")
    inner_attrs = attr.nested
    rows: dict[RowKey, Fraction] = {}
    for entry in value:
        try:
            config = _json_list(entry, "config")
            prob = entry["P(Y)"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed nested cell entry: {entry!r}") from exc
        if len(config) != len(inner_attrs):
            raise ParseError("nested config arity does not match inner attributes")
        key = tuple(_cell_from_json(v, a) for v, a in zip(config, inner_attrs))
        if key in rows:
            raise SchemaError(f"duplicate nested row in {attr.name!r}: {key}")
        rows[key] = _to_fraction(prob)
    return NestedCell(inner_attrs, rows)
