"""Exact-arithmetic discrete probability tables.

Probabilities are ``fractions.Fraction`` values throughout; decimal literals
in input documents are converted exactly (``0.125`` becomes ``1/8``), so
equality comparisons downstream are never tolerance-dependent.

Three table kinds are supported:

* ``joint`` - all probabilities sum to exactly 1.
* ``conditional`` - for every given-configuration with at least one positive
  row, the values over target-configurations sum to exactly 1.
* ``raw`` - conditional-shaped values with no normalization constraint, for
  tables whose stated inequalities are incompatible with per-column sums.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, product, repeat
from json.encoder import encode_basestring_ascii
from operator import getitem, itemgetter
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._frozen import Frozen
from .errors import LimitError, NormalizationError, ParseError, SchemaError, WeakindError
from .partitions import SupportSet, projector

if TYPE_CHECKING:
    import random

Config = tuple[str, ...]

JOINT = "joint"
CONDITIONAL = "conditional"
RAW = "raw"
KINDS = (JOINT, CONDITIONAL, RAW)

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_LITERAL_DIGITS = 4300  # Python's int <-> str cap: every loaded value prints
_DIGITS_CAP = 10**MAX_LITERAL_DIGITS
_esc = encode_basestring_ascii  # json.dumps's escaper under ensure_ascii


class Variable(Frozen):
    _fields = ("name", "domain")
    name: str
    domain: tuple[str, ...]

    def __init__(self, name: str, domain: tuple[str, ...]) -> None:
        if not domain:
            raise SchemaError(f"variable {name!r} has an empty domain")
        if len(set(domain)) != len(domain):
            raise SchemaError(f"variable {name!r} has duplicate domain values")
        vars(self).update(name=name, domain=domain)


class VariableSchema(Frozen):
    _fields = ("variables",)
    variables: tuple[Variable, ...]

    def __init__(self, variables: tuple[Variable, ...]) -> None:
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate variable names in schema")
        vars(self)["variables"] = variables

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def value_index(self) -> dict[str, dict[str, int]]:
        """Per variable name, in schema order: each domain value's position."""
        return {v.name: {d: i for i, d in enumerate(v.domain)} for v in self.variables}

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise SchemaError(f"unknown variable {name!r}")

    def order(self, names: Iterable[str]) -> tuple[str, ...]:
        """The given subset in schema order."""
        return projector(self.names, names)(self.names)

    def check_config(self, config: Config) -> None:
        if len(config) != len(self.variables):
            raise SchemaError(f"configuration {config} has wrong arity")
        for value, (name, index) in zip(config, self.value_index.items()):
            if value not in index:
                raise SchemaError(f"value {value!r} outside domain of variable {name!r}")

    def check_partial(self, assignment: Mapping[str, str]) -> None:
        for name, value in assignment.items():
            if value not in self.variable(name).domain:
                raise SchemaError(
                    f"value {value!r} outside domain of variable {name!r}"
                )

    def configs(self, names: Iterable[str] | None = None) -> Iterator[Config]:
        """All configurations over a subset, lexicographic in domain order."""
        subset = self.names if names is None else self.order(names)
        domains = [self.variable(n).domain for n in subset]
        return product(*domains)

    @cached_property
    def str_ordered(self) -> bool:
        """Whether every domain is listed in ``str`` order, so that plain tuple
        comparison of configurations is domain order."""
        return all(list(v.domain) == sorted(v.domain) for v in self.variables)

    def canonical(
        self, configs: Iterable[Config], names: Sequence[str] | None = None
    ) -> list[Config]:
        """``configs``, projections on ``names`` (default: every variable, in
        schema order), sorted by domain order: by plain tuple comparison when
        the domains are in ``str`` order, else by each value's domain index."""
        if self.str_ordered:
            return sorted(configs)
        index = self.value_index
        columns = list(index.values()) if names is None else [index[n] for n in names]
        return sorted(configs, key=lambda config: tuple(map(getitem, columns, config)))


def _parse_literal(text: str) -> Fraction:
    """``Fraction(text)``, but ``LimitError`` before it would build a numerator or
    denominator of more than ``MAX_LITERAL_DIGITS`` digits. The ASCII ``n/d``
    and ``n`` forms ``frac_str`` writes skip ``Fraction``'s string parser."""
    num, slash, den = text.partition("/")
    if num.isdigit() and num.isascii() and (not slash or den.isdigit() and den.isascii()):
        if max(len(num), len(den)) <= MAX_LITERAL_DIGITS:
            return Fraction(int(num), int(den) if slash else 1)
    elif slash:
        if max(_digits(num), _digits(den)) <= MAX_LITERAL_DIGITS:
            return Fraction(text)
    else:
        mantissa, _, exp = text.lower().partition("e")
        whole, _, decimals = mantissa.partition(".")
        try:
            shift = int(exp) if exp else 0
        except ValueError:
            shift = 0  # malformed: Fraction(text) reports it
        places = _digits(decimals)
        sizes = (_digits(whole) + places + max(shift, 0), places + max(-shift, 0) + 1)
        if max(sizes) <= MAX_LITERAL_DIGITS:
            return Fraction(text)
    raise LimitError(f"probability literal spells more than {MAX_LITERAL_DIGITS} digits")


def _digits(text: str) -> int:
    return sum(map(str.isdigit, text))


def _to_fraction(value: object) -> Fraction:
    if isinstance(value, str):
        try:
            result = _parse_literal(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"invalid probability literal: {value!r}") from exc
    elif isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        result = Fraction(value)
    else:
        raise ParseError(f"invalid probability literal: {value!r}")
    if result.numerator < 0:
        raise SchemaError(f"negative probability: {result}")
    return result


def _check_fields(schema: VariableSchema, kind: str, targets, givens) -> tuple:
    """Check a table's kind, targets and givens; the latter two in schema order."""
    if kind not in KINDS:
        raise SchemaError(f"unknown table kind {kind!r}")
    if kind == JOINT:
        if targets is not None or givens is not None:
            raise SchemaError("joint tables do not take targets/givens")
        return None, None
    if targets is None or givens is None:
        raise SchemaError(f"{kind} tables require targets and givens")
    targets, givens = tuple(targets), tuple(givens)
    if not all(isinstance(name, str) for name in targets + givens):
        raise ParseError("targets and givens must be lists of variable names")
    targets, givens = schema.order(targets), schema.order(givens)
    if set(targets) & set(givens):
        raise SchemaError("targets and givens overlap")
    if set(targets) | set(givens) != set(schema.names):
        raise SchemaError("targets and givens must cover the schema")
    return targets, givens


def common_weights(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """``(L, [v * L for v in values])``, ``L`` the lcm of the denominators: masses
    are summed and compared as integers over one denominator. Each distinct
    object is weighted once. ``LimitError`` once ``L`` passes
    ``MAX_LITERAL_DIGITS`` digits, before any weight."""
    values = list(values)
    ids = list(map(id, values))
    distinct = dict(zip(ids, values))  # ``values`` keeps each id's object alive
    lcm = 1
    for den in {v.denominator for v in distinct.values()}:
        lcm = math.lcm(lcm, den)
        if lcm >= _DIGITS_CAP:
            raise LimitError(f"common denominator passes {MAX_LITERAL_DIGITS} digits")
    weight = {i: v.numerator * (lcm // v.denominator) for i, v in distinct.items()}
    return lcm, list(map(weight.__getitem__, ids))


def mass_sum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum over ``common_weights``; ``LimitError`` if it would not print."""
    return _summed(*common_weights(values))


def _summed(lcm: int, weights: Iterable[int]) -> Fraction:
    total = Fraction(sum(weights), lcm)
    if total.numerator >= _DIGITS_CAP:
        raise LimitError(f"sum of masses passes {MAX_LITERAL_DIGITS} digits")
    return total


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class Violation(NamedTuple):
    code: str
    message: str
    config: Config | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {"code": self.code, "message": self.message}
        if self.config is not None:
            doc["config"] = list(self.config)
        return doc


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "valid": self.ok,
            "violations": [v.to_json_dict() for v in self.violations],
        }


class Table(Frozen):
    """Immutable mapping from full configurations to exact probabilities.

    Absent configurations read as zero. Explicit zero rows are accepted on
    input but dropped internally, so ``rows`` holds the support exactly. The
    rows are checked by ``_row_by_row``, the loaders' row checker: a key may be
    any sequence of domain values and is kept as a tuple. What the checks and
    ``granular`` derive from ``rows`` (``weights`` and the support, which keeps
    its ``theta`` partitions) is built once per table on first use, so ``rows``
    must never be mutated.
    """

    _fields = ("schema", "rows", "kind", "targets", "givens")
    schema: VariableSchema
    rows: Mapping[Config, Fraction]
    kind: str
    targets: tuple[str, ...] | None
    givens: tuple[str, ...] | None

    def __init__(self, schema: VariableSchema, rows: Mapping[Config, Fraction],
                 kind: str = JOINT, targets: tuple[str, ...] | None = None,
                 givens: tuple[str, ...] | None = None) -> None:
        vars(self).update(schema=schema, rows=rows, kind=kind, targets=targets,
                          givens=givens)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields ``__init__`` stored; its own method, so that the bench's
        tracer can time it as ``tables.build``."""
        targets, givens = _check_fields(self.schema, self.kind, self.targets, self.givens)
        rows = _row_by_row(self.schema, self.rows.items())
        vars(self).update(rows=rows, targets=targets, givens=givens)

    @classmethod
    def _built(cls, schema: VariableSchema, rows: dict[Config, Fraction], kind: str = JOINT,
               targets: tuple | None = None, givens: tuple | None = None) -> "Table":
        """A table from rows already checked, skipping ``__init__``'s checks.

        The caller guarantees what it would check: the keys of ``rows`` are
        distinct full configurations over ``schema``'s domains, its values are
        positive ``Fraction``s, and ``kind``, ``targets`` and ``givens`` are as
        ``_check_fields`` returns them. The caller hands ``rows`` over and must
        never mutate it: the table's cached weights and support are derived from it.
        """
        table = object.__new__(cls)
        vars(table).update(schema=schema, rows=rows, kind=kind, targets=targets,
                           givens=givens)
        return table

    # -- basic queries ----------------------------------------------------

    def total_mass(self) -> Fraction:
        return _summed(*self.weights)

    @cached_property
    def weights(self) -> tuple[int, list[int]]:
        """``common_weights`` of the rows: the weights in row order."""
        return common_weights(self.rows.values())

    def support(self) -> SupportSet:
        """Positive rows in document order, at positions 0, 1, ...; built once."""
        return self._support

    @cached_property
    def _support(self) -> SupportSet:
        return SupportSet(self.schema.names, tuple(self.rows), tuple(range(len(self.rows))))

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Report every violated invariant of the kind; empty report iff valid."""
        violations: list[Violation] = []
        if self.kind == RAW:
            return ValidationReport(tuple(violations))
        if self.kind == JOINT:
            total = self.total_mass()
            if total != ONE:
                violations.append(
                    Violation("joint-sum", f"probabilities sum to {total}, not 1")
                )
        else:
            given_of = projector(self.schema.names, self.givens or ())
            by_given: dict[Config, list[Fraction]] = {}
            for config, value in self.rows.items():
                by_given.setdefault(given_of(config), []).append(value)
            for g in sorted(by_given):
                total = mass_sum(by_given[g])
                if total != ONE:
                    violations.append(
                        Violation(
                            "given-sum",
                            f"values for given-configuration {g} sum to {total}, not 1",
                            g,
                        )
                    )
        return ValidationReport(tuple(violations))

    # -- serialization -------------------------------------------------------

    def digest(self) -> str:
        """sha256 of the canonical JSON form, ``serialize_table(self)``."""
        import hashlib  # on first use, so that importing the package does not load it

        return hashlib.sha256(serialize_table(self).encode("ascii")).hexdigest()


def load_table(
    source: str | bytes | IO, format: str = "json", check: bool = True
) -> Table:
    """Parse a table document and check the invariants of its declared kind.

    With ``check=False`` only schema-level invariants are enforced, which is
    what the ``validate`` command uses to report normalization violations
    instead of failing on them.
    """
    text = _read_source(source)
    if format == "json":
        table = _load_json(_parse_json(text))
    elif format == "csv":
        table = _load_csv(text)
    else:
        raise ParseError(f"unknown format {format!r}")
    return _checked(table) if check else table


def _checked(table: Table) -> Table:
    report = table.validate()
    if not report.ok:
        raise NormalizationError(report.violations[0].message)
    return table


def _read_source(source: str | bytes | IO) -> str:
    """The document's text; ``ParseError`` if it is not UTF-8."""
    try:
        data = source if isinstance(source, (str, bytes)) else source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from exc


def _parse_json(text: str, parse_float=_parse_literal) -> object:
    """A JSON document with exact, size-checked decimals, unless ``parse_float`` says."""
    try:  # ValueError: also an integer past the digit cap; RecursionError: deep nesting
        return json.loads(text, parse_float=parse_float)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON document: {exc}") from exc


def _load_json(doc: object) -> Table:
    """A table from a parsed JSON document, its kind's sums not checked.

    A document whose rows are all objects with a list ``config`` and a string
    ``p`` is checked by columns (see ``_trusted``); any other goes row by row."""
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
    targets = _json_list(doc, "targets") if "targets" in doc else None
    givens = _json_list(doc, "givens") if "givens" in doc else None
    columns = None
    if set(map(type, rows_doc)) <= {dict}:
        try:
            configs = list(map(itemgetter("config"), rows_doc))
            probs = list(map(itemgetter("p"), rows_doc))
        except KeyError:
            pass
        else:
            if set(map(type, configs)) <= {list} and set(map(type, probs)) <= {str}:
                columns = list(map(tuple, configs)), probs
    entries = map(_row_entry, rows_doc)
    return _trusted(VariableSchema(variables), entries, kind, targets, givens, columns)


def _row_entry(entry: Mapping) -> tuple[Config, object]:
    """A row's configuration, its values read as ``str(value)``, and its literal."""
    try:
        return tuple(map(str, _json_list(entry, "config"))), entry["p"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed row entry: {entry!r}") from exc


def _trusted(schema: VariableSchema, entries: Iterable[tuple[tuple, object]],
             kind: str = JOINT, targets=None, givens=None,
             columns: tuple[list[tuple], list[str]] | None = None) -> Table:
    """``Table(schema, dict(entries), kind, targets, givens)``, each of its checks made
    once as the rows are read, each distinct literal parsed once. Zero rows are
    dropped after the duplicate check; the support keeps document order.

    ``columns``, the same rows as a list of configuration tuples and a list of
    string literals, is tried first: when ``_column_rows`` passes them, ``entries``
    is never read. Any fault sends the document through ``_row_by_row``, so a faulty
    document reports the error that the row-by-row checks find first."""
    targets, givens = _check_fields(schema, kind, targets, givens)
    rows = None if columns is None else _column_rows(schema, *columns)
    if rows is None:
        rows = _row_by_row(schema, entries)
    return Table._built(schema, rows, kind, targets, givens)


def _column_rows(schema: VariableSchema, configs: list[tuple],
                 probs: list[str]) -> dict[Config, Fraction] | None:
    """The nonzero rows, checked a column at a time; ``None`` at any fault: a wrong
    arity, a value outside its domain (or not a string), a bad literal or a repeat."""
    try:
        if not set(map(len, configs)) <= {len(schema.variables)} or not all(
            index.keys() >= set(map(itemgetter(i), configs))
            for i, index in enumerate(schema.value_index.values())
        ):
            return None
    except TypeError:  # an unhashable value
        return None
    try:
        memo = {prob: _to_fraction(prob) for prob in set(probs)}
    except WeakindError:
        return None
    rows = dict(zip(configs, map(memo.__getitem__, probs)))
    if len(rows) != len(configs):
        return None
    return rows if all(memo.values()) else _nonzero(rows)


def _row_by_row(schema: VariableSchema,
                entries: Iterable[tuple[Sequence, object]]) -> dict[Config, Fraction]:
    """The nonzero rows, each checked as it is read: arity and domain values, repeats,
    then the literal. A configuration may be any sequence; it is kept as a tuple."""
    indexes, width = list(schema.value_index.values()), len(schema.variables)
    rows: dict[Config, Fraction] = {}
    memo: dict[str, Fraction] = {}
    for config, prob in entries:
        if not (type(config) is tuple and len(config) == width
                and all(map(dict.__contains__, indexes, config))):
            config = tuple(config)
            schema.check_config(config)
        if config in rows:
            raise SchemaError(f"duplicate configuration: {config}")
        if type(prob) is Fraction and prob.numerator >= 0:
            value = prob
        elif type(prob) is not str:
            value = _to_fraction(prob)
        elif (value := memo.get(prob)) is None:
            value = memo[prob] = _to_fraction(prob)
        rows[config] = value
    return rows if all(rows.values()) else _nonzero(rows)


def _nonzero(rows: dict[Config, Fraction]) -> dict[Config, Fraction]:
    return {config: value for config, value in rows.items() if value}


def _json_list(doc: Mapping, key: str) -> list:
    """A field that must be a JSON list; a string is not read as characters."""
    value = doc[key]
    if not isinstance(value, list):
        raise ParseError(f"field {key!r} must be a JSON list")
    return value


def _load_csv(text: str) -> Table:
    """Joint tables only; domains are taken in order of first appearance."""
    import csv  # on first use, so that importing the package does not load it

    try:
        return _load_records(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise ParseError(f"malformed CSV document: {exc}") from exc


def _load_records(reader: Iterator[list[str]]) -> Table:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty CSV document") from None
    if not header or header[-1] != "p":
        raise ParseError("CSV header must end with a 'p' column")
    names = header[:-1]
    if not names:
        raise ParseError("CSV document declares no variables")
    records = []
    for lineno, record in enumerate(reader, start=2):
        if record and len(record) != len(header):
            raise ParseError(f"CSV line {lineno} has {len(record)} fields")
        records.append(record)
    columns = list(zip(*filter(None, records))) or [()] * len(header)
    variables = tuple(map(Variable, names, map(tuple, map(dict.fromkeys, columns))))
    configs, probs = list(zip(*columns[:-1])), list(columns[-1])
    return _trusted(VariableSchema(variables), zip(configs, probs), columns=(configs, probs))


def serialize_table(table: Table) -> str:
    """Canonical JSON form: rows sorted by domain order, fractions reduced.

    When every domain is listed in ``str`` order, plain tuple comparison is that
    order and the rows are sorted without a per-row key (``VariableSchema.canonical``).
    JSON is written directly, byte for byte ``json.dumps(doc, indent=2) + "\\n"``
    of the document ``load_table`` reads (``indent`` runs json's Python encoder).

    Rows are built without a per-row expression: each distinct ``Fraction``
    object (a loaded table shares one per literal) is formatted once, each
    configuration is one ``str.join``, and one ``str.join`` interleaves them
    with the fixed row text. Domain values go through per-column escape maps
    only when some value has a JSON escape or is not ASCII.
    """
    variables = table.schema.variables
    doc = {"variables": [{"name": v.name, "domain": v.domain} for v in variables],
           "kind": table.kind}
    if table.kind != JOINT:
        doc.update(targets=table.targets, givens=table.givens)
    front = write_json(doc)[:-2] + ',\n  "rows": '  # the document up to its closing "\n}"
    if not table.rows:
        return front + "[]\n}\n"
    configs = table.schema.canonical(table.rows)
    values = list(map(table.rows.__getitem__, configs))
    ids = list(map(id, values))
    distinct = dict(zip(ids, values))  # ``values`` keeps each id's object alive
    texts = dict(zip(distinct, map(frac_str, distinct.values())))
    encoded = [{d: _esc(d) for d in v.domain} for v in variables]
    if all(e == f'"{d}"' for column in encoded for d, e in column.items()):
        quote, cells = '"' if variables else "", configs
    else:  # each value already encoded, quotes included
        quote, cells = "", zip(*[map(column.__getitem__, map(itemgetter(i), configs))
                                 for i, column in enumerate(encoded)])
    open_, close = ("[\n        ", "\n      ]") if variables else ("[", "]")
    head = '{\n      "config": ' + open_ + quote
    parts = chain.from_iterable(zip(
        repeat(",\n    " + head), map((quote + ",\n        " + quote).join, cells),
        repeat(quote + close + ',\n      "p": "'), map(texts.__getitem__, ids),
        repeat('"\n    }'),
    ))
    next(parts)  # the first row takes no separator
    return "".join(chain((front, "[\n    ", head), parts, ("\n  ]\n}\n",)))


def _json_array(items: Sequence[str], indent: str, brackets: str = "[]") -> str:
    """``json.dumps(..., indent=2)`` layout of encoded list (``"{}"``: object) items."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


def write_json(doc: object, indent: str = "") -> str:
    """``json.dumps(doc, indent=2)``, written directly, one string per subtree: dicts
    with ``str`` keys, lists and tuples (as arrays), ``str``, ``int``, ``bool`` and
    ``None``. Any other type raises ``TypeError``."""
    inner = indent + "  "
    if isinstance(doc, dict):
        items = [f"{_esc(k)}: {_esc(v) if type(v) is str else write_json(v, inner)}"
                 for k, v in doc.items()]
        return _json_array(items, indent, "{}")
    if isinstance(doc, (list, tuple)):
        items = [_esc(v) if type(v) is str else write_json(v, inner) for v in doc]
        return _json_array(items, indent)
    if isinstance(doc, str):
        return _esc(doc)
    if doc is None or type(doc) is bool:
        return "null" if doc is None else "true" if doc else "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def uniform_joint_extension(table: Table) -> Table:
    """Joint table ``P(c) = v(c) / Σ v`` over a conditional-shaped table's rows.

    Conditional-shaped tables carry no distribution over their given-set, so
    reports that need a joint input extend them. In a ``conditional`` table
    each supported given-column sums to 1, so this weights every
    given-configuration that has a positive row equally (a uniform prior).
    In a ``raw`` table each given-configuration is weighted by its column's
    value sum instead. Rows keep their order, and so their support labels.
    """
    if table.kind == JOINT:
        return table
    weights = table.weights[1]
    total = sum(weights)
    if not total:
        raise SchemaError("cannot extend a table with empty support")
    rows = {config: Fraction(w, total) for config, w in zip(table.rows, weights)}
    return Table._built(table.schema, rows, JOINT)


def random_joint_table(
    rng: random.Random,
    variables: Iterable[tuple[str, int]],
) -> Table:
    """Random joint table with exact rational masses (weights 0-9), for probes and tests."""
    schema = VariableSchema(
        tuple(
            Variable(name, tuple(str(i) for i in range(size)))
            for name, size in variables
        )
    )
    configs = list(schema.configs())
    weights = [rng.randint(0, 9) for _ in configs]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    rows = {
        config: Fraction(w, total) for config, w in zip(configs, weights) if w > 0
    }
    return Table._built(schema, rows, JOINT)
