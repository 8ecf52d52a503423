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

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import IO, Iterable, Iterator, Mapping

from .errors import NormalizationError, ParseError, SchemaError
from .partitions import SupportSet

Config = tuple[str, ...]

JOINT = "joint"
CONDITIONAL = "conditional"
RAW = "raw"
KINDS = (JOINT, CONDITIONAL, RAW)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Variable:
    name: str
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.domain:
            raise SchemaError(f"variable {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise SchemaError(f"variable {self.name!r} has duplicate domain values")


@dataclass(frozen=True)
class VariableSchema:
    variables: tuple[Variable, ...]

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate variable names in schema")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise SchemaError(f"unknown variable {name!r}")

    def order(self, names: Iterable[str]) -> tuple[str, ...]:
        """The given subset in schema order."""
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise SchemaError(f"unknown variables: {sorted(unknown)}")
        return tuple(n for n in self.names if n in wanted)

    def positions(self, names: Iterable[str]) -> tuple[int, ...]:
        wanted = set(names)
        self.order(wanted)
        return tuple(i for i, n in enumerate(self.names) if n in wanted)

    def check_config(self, config: Config) -> None:
        if len(config) != len(self.variables):
            raise SchemaError(f"configuration {config} has wrong arity")
        for value, var in zip(config, self.variables):
            if value not in var.domain:
                raise SchemaError(
                    f"value {value!r} outside domain of variable {var.name!r}"
                )

    def check_partial(self, assignment: Mapping[str, str]) -> None:
        for name, value in assignment.items():
            if value not in self.variable(name).domain:
                raise SchemaError(
                    f"value {value!r} outside domain of variable {name!r}"
                )

    def project(self, config: Config, names: Iterable[str]) -> Config:
        positions = self.positions(names)
        return tuple(config[p] for p in positions)

    def merge(self, *parts: Mapping[str, str]) -> Config:
        """Assemble a full configuration from disjoint partial assignments."""
        merged: dict[str, str] = {}
        for part in parts:
            for name, value in part.items():
                if name in merged and merged[name] != value:
                    raise SchemaError(f"conflicting assignments for {name!r}")
                merged[name] = value
        if set(merged) != set(self.names):
            missing = set(self.names) - set(merged)
            raise SchemaError(f"assignment does not cover variables: {sorted(missing)}")
        return tuple(merged[n] for n in self.names)

    def configs(self, names: Iterable[str] | None = None) -> Iterator[Config]:
        """All configurations over a subset, lexicographic in domain order."""
        subset = self.names if names is None else self.order(names)
        domains = [self.variable(n).domain for n in subset]
        return product(*domains)

    def sort_key(self, config: Config) -> tuple[int, ...]:
        return tuple(
            var.domain.index(value) for var, value in zip(self.variables, config)
        )


def _to_fraction(value: object) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"invalid probability literal: {value!r}")
    if isinstance(value, Fraction):
        result = value
    elif isinstance(value, int):
        result = Fraction(value)
    elif isinstance(value, str):
        try:
            result = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"invalid probability literal: {value!r}") from exc
    else:
        raise ParseError(f"invalid probability literal: {value!r}")
    if result < 0:
        raise SchemaError(f"negative probability: {result}")
    return result


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    config: Config | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {"code": self.code, "message": self.message}
        if self.config is not None:
            doc["config"] = list(self.config)
        return doc


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "valid": self.ok,
            "violations": [v.to_json_dict() for v in self.violations],
        }


@dataclass(frozen=True)
class Table:
    """Immutable mapping from full configurations to exact probabilities.

    Absent configurations read as zero. Explicit zero rows are accepted on
    input but dropped internally, so ``rows`` holds the support exactly.
    """

    schema: VariableSchema
    rows: Mapping[Config, Fraction]
    kind: str = JOINT
    targets: tuple[str, ...] | None = None
    givens: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SchemaError(f"unknown table kind {self.kind!r}")
        cleaned: dict[Config, Fraction] = {}
        for config, value in self.rows.items():
            config = tuple(config)
            self.schema.check_config(config)
            value = _to_fraction(value)
            if config in cleaned:
                raise SchemaError(f"duplicate configuration: {config}")
            if value > 0:
                cleaned[config] = value
        object.__setattr__(self, "rows", cleaned)
        if self.kind == JOINT:
            if self.targets is not None or self.givens is not None:
                raise SchemaError("joint tables do not take targets/givens")
        else:
            if self.targets is None or self.givens is None:
                raise SchemaError(f"{self.kind} tables require targets and givens")
            targets = self.schema.order(self.targets)
            givens = self.schema.order(self.givens)
            if set(targets) & set(givens):
                raise SchemaError("targets and givens overlap")
            if set(targets) | set(givens) != set(self.schema.names):
                raise SchemaError("targets and givens must cover the schema")
            object.__setattr__(self, "targets", targets)
            object.__setattr__(self, "givens", givens)

    # -- basic queries ----------------------------------------------------

    def total_mass(self) -> Fraction:
        return sum(self.rows.values(), ZERO)

    def value(self, config: Config) -> Fraction:
        return self.rows.get(tuple(config), ZERO)

    def support(self) -> SupportSet:
        """Positive rows in document order, labelled t1, t2, ..."""
        rows = tuple(
            (f"t{i + 1}", config) for i, config in enumerate(self.rows.keys())
        )
        return SupportSet(self.schema.names, rows)

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
            by_given: dict[Config, Fraction] = {}
            for config, value in self.rows.items():
                g = self.schema.project(config, self.givens or ())
                by_given[g] = by_given.get(g, ZERO) + value
            for g in sorted(by_given, key=lambda c: c):
                total = by_given[g]
                if total != ONE:
                    violations.append(
                        Violation(
                            "given-sum",
                            f"values for given-configuration {g} sum to {total}, not 1",
                            g,
                        )
                    )
        return ValidationReport(tuple(violations))

    # -- probabilistic operations -------------------------------------------

    def partial_mass(self, assignment: Mapping[str, str]) -> Fraction:
        """Sum of all rows matching a partial assignment."""
        self.schema.check_partial(assignment)
        positions = self.schema.positions(assignment)
        wanted = tuple(assignment[self.schema.names[p]] for p in positions)
        total = ZERO
        for config, value in self.rows.items():
            if tuple(config[p] for p in positions) == wanted:
                total += value
        return total

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {
            "variables": [
                {"name": v.name, "domain": list(v.domain)}
                for v in self.schema.variables
            ],
            "kind": self.kind,
        }
        if self.kind != JOINT:
            doc["targets"] = list(self.targets or ())
            doc["givens"] = list(self.givens or ())
        ordered = sorted(self.rows, key=self.schema.sort_key)
        doc["rows"] = [
            {"config": list(cfg), "p": frac_str(self.rows[cfg])} for cfg in ordered
        ]
        return doc

    def digest(self) -> str:
        return hashlib.sha256(serialize_table(self).encode("utf-8")).hexdigest()


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
        table = _load_json(text)
    elif format == "csv":
        table = _load_csv(text)
    else:
        raise ParseError(f"unknown format {format!r}")
    if check:
        report = table.validate()
        if not report.ok:
            raise NormalizationError(report.violations[0].message)
    return table


def _read_source(source: str | bytes | IO) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _load_json(text: str) -> Table:
    try:
        doc = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON document: {exc}") from exc
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
    schema = VariableSchema(variables)
    rows: dict[Config, Fraction] = {}
    for entry in rows_doc:
        try:
            config = tuple(str(v) for v in _json_list(entry, "config"))
            prob = entry["p"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed row entry: {entry!r}") from exc
        if config in rows:
            raise SchemaError(f"duplicate configuration: {config}")
        rows[config] = _to_fraction(prob)
    targets = tuple(_json_list(doc, "targets")) if "targets" in doc else None
    givens = tuple(_json_list(doc, "givens")) if "givens" in doc else None
    return Table(schema, rows, kind, targets, givens)


def _json_list(doc: Mapping, key: str) -> list:
    """A field that must be a JSON list; a string is not read as characters."""
    value = doc[key]
    if not isinstance(value, list):
        raise ParseError(f"field {key!r} must be a JSON list")
    return value


def _load_csv(text: str) -> Table:
    """Joint tables only; domains are taken in order of first appearance."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty CSV document") from None
    if not header or header[-1] != "p":
        raise ParseError("CSV header must end with a 'p' column")
    names = header[:-1]
    if not names:
        raise ParseError("CSV document declares no variables")
    domains: list[list[str]] = [[] for _ in names]
    configs: list[tuple[Config, Fraction]] = []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise ParseError(f"CSV line {lineno} has {len(record)} fields")
        config = tuple(record[:-1])
        for value, domain in zip(config, domains):
            if value not in domain:
                domain.append(value)
        configs.append((config, _to_fraction(record[-1])))
    schema = VariableSchema(
        tuple(Variable(n, tuple(d)) for n, d in zip(names, domains))
    )
    rows: dict[Config, Fraction] = {}
    for config, value in configs:
        if config in rows:
            raise SchemaError(f"duplicate configuration: {config}")
        rows[config] = value
    return Table(schema, rows, JOINT)


def serialize_table(table: Table, format: str = "json") -> str:
    """Canonical text form: rows sorted by domain order, fractions reduced."""
    if format == "json":
        return json.dumps(table.to_json_dict(), indent=2) + "\n"
    if format == "csv":
        if table.kind != JOINT:
            raise SchemaError("CSV serialization is for joint tables only")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(list(table.schema.names) + ["p"])
        for config in sorted(table.rows, key=table.schema.sort_key):
            writer.writerow(list(config) + [frac_str(table.rows[config])])
        return out.getvalue()
    raise ParseError(f"unknown format {format!r}")


def uniform_joint_extension(table: Table) -> Table:
    """Joint table obtained by a uniform prior over supported given-configs.

    Conditional-shaped tables carry no distribution over their given-set, so
    reports that need a joint input extend them by weighting each
    given-configuration that has at least one positive row equally, then
    normalizing the total mass exactly.
    """
    if table.kind == JOINT:
        return table
    assert table.givens is not None
    by_given: dict[Config, list[tuple[Config, Fraction]]] = {}
    for config, value in table.rows.items():
        g = table.schema.project(config, table.givens)
        by_given.setdefault(g, []).append((config, value))
    if not by_given:
        raise SchemaError("cannot extend a table with empty support")
    count = Fraction(len(by_given))
    rows: dict[Config, Fraction] = {}
    for entries in by_given.values():
        for config, value in entries:
            rows[config] = value / count
    total = sum(rows.values(), ZERO)
    rows = {config: value / total for config, value in rows.items()}
    return Table(table.schema, rows, JOINT)


def random_joint_table(
    rng: random.Random,
    variables: Iterable[tuple[str, int]],
    max_weight: int = 9,
) -> Table:
    """Random joint table with exact rational masses, for probes and tests."""
    schema = VariableSchema(
        tuple(
            Variable(name, tuple(str(i) for i in range(size)))
            for name, size in variables
        )
    )
    configs = list(schema.configs())
    weights = [rng.randint(0, max_weight) for _ in configs]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    rows = {
        config: Fraction(w, total) for config, w in zip(configs, weights) if w > 0
    }
    return Table(schema, rows, JOINT)
