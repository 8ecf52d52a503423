"""Checkers for strong, context-strong, and weak independence statements.

Every checker returns a verdict with a machine-checkable certificate:
counterexample conditional values for the strong family, and the composed
partition with per-class projected domains and per-class verdicts for the
weak family. Replaying a certificate against its table reproduces the
verdict bit-exactly.

Semantics notes
---------------

* Conditional values on joint tables are exact mass ratios; conditioning on
  a zero-mass configuration is skipped and counted as vacuous.
* Conditional-shaped tables (kinds ``conditional`` and ``raw``) are checked
  by constancy of stored values: the target's conditional must not change
  across the quantified given-configurations. Raw tables quantify over the
  full declared given-domain with absent rows reading as zero; strict
  conditional tables skip given-configurations that have no positive row.
* Class-restricted checks inside the weak family quantify only over the
  values that occur inside a composed class (the projected domains).
* A composed class is a *vacuous* witness when its projected given-side
  domain is a singleton, since then the constancy requirement compares
  nothing. For the contextual check, a vacuous class only counts as a
  witness when it is the sole class: a context that splinters into several
  constraint-free classes exhibits a value bijection, not independence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import LimitError, StatementError
from .partitions import (
    SupportSet,
    commutes,
    projected_domain,
    projector,
    restrict_context,
    theta,
)
from .tables import JOINT, RAW, ZERO, Config, Table, common_weights, frac_str

CI = "CI"
CSI = "CSI"
PCI = "PCI"
CWI = "CWI"
WI = "WI"
STATEMENT_KINDS = (CI, CSI, PCI, CWI, WI)
MAX_UNIVERSE = 8  # variables; enumeration walks up to 4**n role vectors
MAX_STATEMENTS = 20_000  # enumerated statements, counted before the first check


class Statement(NamedTuple):
    """An independence statement between disjoint variable sets."""

    kind: str
    x: tuple[str, ...]
    z: tuple[str, ...]
    y: tuple[str, ...] = ()
    context: tuple[tuple[str, str], ...] | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "x": list(self.x),
            "z": list(self.z),
            "y": list(self.y),
        }
        doc["context"] = (
            None if self.context is None else {n: v for n, v in self.context}
        )
        return doc


class Counterexample(NamedTuple):
    """Two conditional values that ought to agree but do not."""

    x: Config
    y: Config
    z: Config
    value: Fraction
    reference_z: Config | None
    reference: Fraction

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.x),
            "y": list(self.y),
            "z": list(self.z),
            "value": frac_str(self.value),
            "reference_z": None if self.reference_z is None else list(self.reference_z),
            "reference": frac_str(self.reference),
        }


class StrongCertificate(NamedTuple):
    comparisons: int
    vacuous: int
    context_in_support: bool
    counterexample: Counterexample | None

    def to_json_dict(self) -> dict:
        return {
            "comparisons": self.comparisons,
            "vacuous": self.vacuous,
            "context_in_support": self.context_in_support,
            "counterexample": self.counterexample and self.counterexample.to_json_dict(),
        }


class ClassCounterexample(NamedTuple):
    x: Config
    z: Config
    value: Fraction
    reference_z: Config | None
    reference: Fraction
    reason: str  # "constancy" or "marginal"

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.x),
            "z": list(self.z),
            "value": frac_str(self.value),
            "reference_z": None if self.reference_z is None else list(self.reference_z),
            "reference": frac_str(self.reference),
            "reason": self.reason,
        }


class ClassReport(NamedTuple):
    """One composed equivalence class with its projected domains."""

    labels: tuple[str, ...]
    x_values: tuple[Config, ...]
    y_values: tuple[Config, ...]
    z_values: tuple[Config, ...]
    satisfied: bool
    vacuous: bool
    counterexample: ClassCounterexample | None

    def to_json_dict(self) -> dict:
        return {
            "rows": list(self.labels),
            "x_values": [list(v) for v in self.x_values],
            "y_values": [list(v) for v in self.y_values],
            "z_values": [list(v) for v in self.z_values],
            "class_ci": self.satisfied,
            "vacuous": self.vacuous,
            "counterexample": self.counterexample and self.counterexample.to_json_dict(),
        }


class WeakCertificate(NamedTuple):
    support_labels: tuple[str, ...]
    commutes: bool
    witness: tuple[str, str] | None
    classes: tuple[ClassReport, ...]
    vacuous: bool  # empty (restricted) support

    def to_json_dict(self) -> dict:
        return {
            "support": list(self.support_labels),
            "commutes": self.commutes,
            "witness": None if self.witness is None else list(self.witness),
            "classes": [c.to_json_dict() for c in self.classes],
            "vacuous": self.vacuous,
        }


class Verdict(NamedTuple):
    statement: Statement
    holds: bool
    certificate: StrongCertificate | WeakCertificate

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement.to_json_dict(),
            "holds": self.holds,
            "certificate": self.certificate.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


# kind -> (roles, context role, checker), for statement checks, enumeration,
# replay and the CLI's check. X, Z and the context role must be nonempty; a
# PCI's context is its fixed conditioning value. The checkers are looked up
# as module globals at call time.
_KINDS = {
    CI: ("XZY", None, lambda t, g, c: check_ci(t, g["X"], g["Z"], g["Y"])),
    CSI: ("XZYC", "C", lambda t, g, c: check_csi(t, g["X"], g["Z"], g["Y"], c)),
    PCI: ("XZY", "Y", lambda t, g, c: check_pci(t, g["X"], g["Z"], c)),
    CWI: ("XZC", "C", lambda t, g, c: check_cwi(t, g["X"], g["Z"], c)),
    WI: ("XZY", None, lambda t, g, c: check_wi(t, g["X"], g["Z"], g["Y"])),
}


def _statement(
    table: Table,
    kind: str,
    x: Iterable[str],
    z: Iterable[str],
    y: Iterable[str] = (),
    context: Mapping[str, str] | None = None,
) -> Statement:
    """The statement with X, Z, Y and the context in schema order.

    Its preconditions are checked in this order, and the first broken one
    raises: a contextual kind has a nonempty context; X, Z and Y name known
    variables; X and Z are nonempty; the context assigns known values to known
    variables; the sets are pairwise disjoint; a weak statement covers the
    schema; a conditional-shaped table reads X as its target-set and the rest
    as its given-set.
    """
    ctx_role = _KINDS[kind][1]
    if ctx_role and not context:
        needs = "a nonempty context" if ctx_role == "C" else "a fixed conditioning value"
        raise StatementError(f"{kind} requires {needs}")
    schema, context = table.schema, context or {}
    xs, zs, ys = schema.order(x), schema.order(z), schema.order(y)
    if not xs or not zs:
        raise StatementError("X and Z must be nonempty")
    schema.check_partial(context)
    named = (*xs, *zs, *ys, *context)  # each part already free of repeats
    if len(set(named)) < len(named):
        raise StatementError("variable sets must be pairwise disjoint")
    if kind in (CWI, WI) and len(named) != len(schema.names):
        raise StatementError("weak statements must cover the full variable set")
    if table.kind != JOINT:
        if set(xs) != set(table.targets):
            raise StatementError("X must equal the table's target-set")
        if set(named[len(xs):]) != set(table.givens):
            raise StatementError("conditioning variables must equal the table's given-set")
    if ctx_role is None:
        return Statement(kind, xs, zs, ys)
    return Statement(kind, xs, zs, ys, tuple((n, context[n]) for n in schema.order(context)))


# ---------------------------------------------------------------------------
# strong family (pointwise conditional equality)
# ---------------------------------------------------------------------------


def _strong_check(
    table: Table,
    x_vars: Sequence[str],
    z_vars: Sequence[str],
    y_vars: Sequence[str],
    context: Mapping[str, str],
) -> tuple[bool, StrongCertificate]:
    schema = table.schema
    support = restrict_context(table.support(), context)
    context_in_support = not context or len(support) > 0
    # The context's rows grouped y -> z -> x -> value: a joint table's integer
    # weights, summed over the variables an embedded statement leaves out, or a
    # conditional-shaped table's stored values (X, Y, the context and Z cover
    # its schema, so each row is one cell).
    values = (map(table.weights[1].__getitem__, support.positions) if table.kind == JOINT
              else map(table.rows.__getitem__, support.configs))
    y_of, z_of, x_of = (projector(schema.names, v) for v in (y_vars, z_vars, x_vars))
    cells: dict[Config, dict[Config, dict[Config, int | Fraction]]] = {}
    for cfg, value in zip(support.configs, values):
        at = cells.setdefault(y_of(cfg), {}).setdefault(z_of(cfg), {})
        x_cfg = x_of(cfg)
        at[x_cfg] = at.get(x_cfg, 0) + value

    # A cell can differ only at a supported y and z, and at an x with a row at
    # that y: elsewhere both sides read zero. Both counts come from the domain
    # sizes and the supported counts. A joint table compares every x at each
    # supported (y, z) and skips each unsupported y or z as one vacuous cell; a
    # strict conditional table compares each supported z against the first; a
    # raw one compares every declared z, absent cells reading as zero.
    n_x, n_y, n_z = (
        math.prod(len(schema.variable(n).domain) for n in names)
        for names in (x_vars, y_vars, z_vars)
    )
    n_yz = sum(map(len, cells.values()))  # supported (y, z)
    if table.kind == JOINT:
        comparisons, vacuous = n_x * n_yz, n_y + len(cells) * (n_z - 1) - n_yz
    elif table.kind == RAW:
        comparisons, vacuous = n_x * n_y * (n_z - 1), 0
    else:
        comparisons, vacuous = n_x * (n_yz - len(cells)), n_x * (n_y * n_z - n_yz)

    # Walk the supported keys in domain order; the first cell that differs is
    # the counterexample. A joint table is walked by (y, z, x), comparing
    # m(yzx)·m(y) with m(yx)·m(yz) by cross-multiplication; a conditional-shaped
    # one by (y, x, z), against the value at the first z. At a raw table's zero
    # baseline the first differing z is the first that holds x; at a nonzero
    # one, the declared z are walked lazily up to the first absent one.
    def differing() -> Iterator[Counterexample]:
        for y_cfg in schema.canonical(cells, y_vars):
            by_z = cells[y_cfg]
            z_configs = schema.canonical(by_z, z_vars)
            m_yx: dict[Config, int | Fraction] = {}
            for at in by_z.values():
                for x_cfg, value in at.items():
                    m_yx[x_cfg] = m_yx.get(x_cfg, 0) + value
            x_configs = schema.canonical(m_yx, x_vars)
            if table.kind == JOINT:
                m_y = sum(m_yx.values())
                for z_cfg in z_configs:
                    at, m_yz = by_z[z_cfg], sum(by_z[z_cfg].values())
                    for x_cfg in x_configs:
                        m_yzx, m_x = at.get(x_cfg, 0), m_yx[x_cfg]
                        if m_yzx * m_y != m_x * m_yz:
                            yield Counterexample(x_cfg, y_cfg, z_cfg, Fraction(m_yzx, m_yz),
                                                 None, Fraction(m_x, m_y))
                continue
            z0 = next(schema.configs(z_vars)) if table.kind == RAW else z_configs[0]
            for x_cfg in x_configs:
                baseline = by_z.get(z0, {}).get(x_cfg, ZERO)
                walk = schema.configs(z_vars) if table.kind == RAW and baseline else z_configs
                for z_cfg in walk:
                    value = by_z.get(z_cfg, {}).get(x_cfg, ZERO)
                    if value != baseline:
                        yield Counterexample(x_cfg, y_cfg, z_cfg, value, z0, baseline)

    counterexample = next(differing(), None)
    return counterexample is None, StrongCertificate(
        comparisons, vacuous, context_in_support, counterexample
    )


def check_ci(
    table: Table,
    x: Iterable[str],
    z: Iterable[str],
    y: Iterable[str] = (),
) -> Verdict:
    """Strong conditional independence of X and Z given Y."""
    s = _statement(table, CI, x, z, y)
    return Verdict(s, *_strong_check(table, s.x, s.z, s.y, {}))


def check_csi(
    table: Table,
    x: Iterable[str],
    z: Iterable[str],
    y: Iterable[str],
    context: Mapping[str, str],
) -> Verdict:
    """Strong independence of X and Z given Y under a fixed context."""
    s = _statement(table, CSI, x, z, y, context)
    return Verdict(s, *_strong_check(table, s.x, s.z, s.y, context))


def check_pci(
    table: Table,
    x: Iterable[str],
    z: Iterable[str],
    y_value: Mapping[str, str],
) -> Verdict:
    """Irrelevance of Z to X at one fixed conditioning value."""
    s = _statement(table, PCI, x, z, (), y_value)
    return Verdict(s, *_strong_check(table, s.x, s.z, (), y_value))


# ---------------------------------------------------------------------------
# weak family (partition composition plus class-restricted checks)
# ---------------------------------------------------------------------------


def _class_report(
    table: Table,
    support: SupportSet,
    block: frozenset[int],
    x_vars: Sequence[str],
    y_vars: Sequence[str],
    z_vars: Sequence[str],
) -> ClassReport:
    y_values = table.schema.canonical(projected_domain(block, support, y_vars), y_vars)
    assert len(y_values) == 1, "composed class spans several Y-values"
    counterexample: ClassCounterexample | None = None

    # X, Y and Z cover the schema and the class is a join block with one
    # Y-value, so every supported (x, y, z) with x and z in the class's
    # projected domains is a row of this block: its cells, and those domains,
    # are read here, as integer weights over one denominator: a joint table's
    # cached ones, which its sum check also uses, or for a conditional-shaped
    # table the class's own, as its table-wide one may pass the digit cap.
    if table.kind == JOINT:
        lcm, table_weights = table.weights
        weights = [table_weights[support.positions[i]] for i in block]
    else:
        lcm, weights = common_weights([table.rows[support.configs[i]] for i in block])
    # Each row's x- and z-values: the keys of its blocks in the support's thetas.
    x_of, z_of = (map(part.keys.__getitem__, map(part.ids.__getitem__, block))
                  for part in (theta(support, x_vars), theta(support, z_vars)))
    cells: dict[tuple[Config, Config], int] = {}
    mass_x: dict[Config, int] = {}
    mass_z: dict[Config, int] = {}
    for xv, zv, w in zip(x_of, z_of, weights):
        cells[xv, zv] = w
        mass_x[xv] = mass_x.get(xv, 0) + w
        mass_z[zv] = mass_z.get(zv, 0) + w
    total = sum(mass_x.values())
    x_values = table.schema.canonical(mass_x, x_vars)
    z_values = table.schema.canonical(mass_z, z_vars)
    # Joint tables compare class-restricted conditionals c / m_z, which must
    # also equal the class marginal m_x / total; conditional-shaped tables
    # compare the stored values c / L. The first z-value is the baseline.
    joint, z0 = table.kind == JOINT, z_values[0]
    for x_cfg, z_cfg in product(x_values, z_values):
        c, m_x = cells.get((x_cfg, z_cfg), 0), mass_x[x_cfg]
        m_z = mass_z[z_cfg] if joint else lcm
        if z_cfg == z0:
            c0, m_z0 = c, m_z
        elif c * m_z0 != c0 * m_z:
            counterexample = ClassCounterexample(
                x_cfg, z_cfg, Fraction(c, m_z), z0, Fraction(c0, m_z0), "constancy"
            )
            break
        if joint and c * total != m_x * m_z:
            counterexample = ClassCounterexample(
                x_cfg, z_cfg, Fraction(c, m_z), None, Fraction(m_x, total), "marginal"
            )
            break

    return ClassReport(support.label_block(block), tuple(x_values), tuple(y_values),
                       tuple(z_values), counterexample is None, len(z_values) < 2,
                       counterexample)


def _weak_certificate(
    table: Table,
    support: SupportSet,
    x_vars: Sequence[str],
    y_vars: Sequence[str],
    z_vars: Sequence[str],
) -> WeakCertificate:
    """The certificate over ``support``, composing its thetas of X∪Y and Y∪Z."""
    if len(support) == 0:
        return WeakCertificate((), True, None, (), True)
    result = commutes(theta(support, (*x_vars, *y_vars)), theta(support, (*y_vars, *z_vars)))
    if not result.commutes:
        assert result.witness is not None
        i, k = result.witness
        witness = (support.labels[i], support.labels[k])
        return WeakCertificate(support.labels, False, witness, (), False)
    assert result.join is not None
    classes = tuple(
        _class_report(table, support, block, x_vars, y_vars, z_vars)
        for block in result.join.blocks
    )
    return WeakCertificate(support.labels, True, None, classes, False)


def check_cwi(
    table: Table,
    x: Iterable[str],
    z: Iterable[str],
    context: Mapping[str, str],
) -> Verdict:
    """Weak independence of X and Z within a fixed context.

    Holds when the contextual compositions commute on the context-restricted
    support and some composed class passes the class-restricted check
    nonvacuously (or vacuously, if it is the only class).
    """
    s = _statement(table, CWI, x, z, (), context)
    support = restrict_context(table.support(), context)
    cert = _weak_certificate(table, support, s.x, tuple(n for n, _ in s.context), s.z)
    classes = cert.classes
    holds = cert.vacuous or cert.commutes and (
        any(c.satisfied and not c.vacuous for c in classes)
        or len(classes) == 1 and classes[0].satisfied
    )
    return Verdict(s, holds, cert)


def check_wi(
    table: Table,
    x: Iterable[str],
    z: Iterable[str],
    y: Iterable[str],
) -> Verdict:
    """Weak independence of X and Z given Y over the full support.

    Holds when the compositions commute and every composed class passes the
    class-restricted check over its projected domains.
    """
    s = _statement(table, WI, x, z, y)
    cert = _weak_certificate(table, table.support(), s.x, s.y, s.z)
    holds = cert.vacuous or cert.commutes and all(c.satisfied for c in cert.classes)
    return Verdict(s, holds, cert)


def replay(table: Table, verdict: Verdict) -> bool:
    """Re-run the check named by a verdict and compare certificates exactly."""
    s = verdict.statement
    if s.kind not in _KINDS:
        raise StatementError(f"unknown statement kind {s.kind!r}")
    context = None if s.context is None else dict(s.context)
    fresh = _KINDS[s.kind][2](table, {"X": s.x, "Z": s.z, "Y": s.y}, context)
    return fresh.to_json_dict() == verdict.to_json_dict()


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


class Limits(NamedTuple):
    max_contexts: int | None = None
    max_statements: int | None = None


class EnumerationResult(NamedTuple):
    verdicts: tuple[Verdict, ...]
    truncated: bool

    def to_json_dict(self) -> dict:
        return {
            "count": len(self.verdicts),
            "truncated": self.truncated,
            "verdicts": [v.to_json_dict() for v in self.verdicts],
        }


def enumerate_statements(
    table: Table, kinds: Iterable[str], limits: Limits = Limits()
) -> EnumerationResult:
    """Deterministically enumerate nonembedded statements with verdicts.

    Variables are considered in name order; each is assigned a role, and the
    role vectors are produced lexicographically, followed by context values
    in domain order. Statements that a conditional-shaped table cannot
    express (X not equal to its target-set) are skipped. A table of more
    than ``MAX_UNIVERSE`` variables, or a limit that is not a nonnegative
    ``int`` (not a ``bool``) or ``None``, raises ``LimitError`` before any vector.
    So do more than ``MAX_STATEMENTS`` statements, counted from the vectors
    and their declared context products (each capped at ``max_contexts``)
    before the first check, unless ``max_statements`` is at most that bound.
    Only the first ``max_statements`` statements are checked.
    """
    requested = set(kinds)
    unknown = requested - set(STATEMENT_KINDS)
    if unknown:
        raise StatementError(f"unknown statement kinds: {sorted(unknown)}")
    schema, names = table.schema, sorted(table.schema.names)
    if len(names) > MAX_UNIVERSE:
        raise LimitError(f"table of {len(names)} variables exceeds bound {MAX_UNIVERSE}")
    domain = {v.name: v.domain for v in schema.variables}
    cap, most = limits.max_contexts, limits.max_statements
    for field, bound in zip(Limits._fields, limits):
        if bound is not None and not (type(bound) is int and bound >= 0):  # refuses a bool
            raise LimitError(f"{field} must be a nonnegative integer or None, not {bound!r}")
    # (checker, sets by role, context variables in schema order) per vector.
    vectors = []
    count, truncated = 0, False
    for kind in STATEMENT_KINDS:
        if kind not in requested:
            continue
        roles, ctx_role, check = _KINDS[kind]
        required = {"X", "Z", ctx_role} - {None}
        for vec in product(roles, repeat=len(names)):
            if not required.issubset(vec):
                continue
            groups = {r: tuple(n for n, v in zip(names, vec) if v == r) for r in "XZYC"}
            if table.kind != JOINT and set(groups["X"]) != set(table.targets):
                continue
            ctx_vars = schema.order(groups[ctx_role]) if ctx_role else ()
            contexts = math.prod(len(domain[n]) for n in ctx_vars)
            if ctx_vars and cap is not None and contexts > cap:
                contexts, truncated = cap, True
            count += contexts
            vectors.append((check, groups, ctx_vars))
    if count > MAX_STATEMENTS and (most is None or most > MAX_STATEMENTS):
        raise LimitError(f"{count} statements exceed bound {MAX_STATEMENTS} on enumeration")
    # A kind without a context has one empty context, which no cap limits.
    verdicts = (
        check(table, groups, dict(zip(ctx_vars, values)))
        for check, groups, ctx_vars in vectors
        for values in islice(product(*map(domain.get, ctx_vars)), cap if ctx_vars else None)
    )
    return EnumerationResult(
        tuple(islice(verdicts, most)), truncated or most is not None and count > most
    )
