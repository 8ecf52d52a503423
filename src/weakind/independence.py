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

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .errors import StatementError
from .partitions import (
    SupportSet,
    commutes,
    projected_domain,
    restrict_context,
    theta,
)
from .tables import JOINT, RAW, Config, Table, frac_str

CI = "CI"
CSI = "CSI"
PCI = "PCI"
CWI = "CWI"
WI = "WI"
STATEMENT_KINDS = (CI, CSI, PCI, CWI, WI)


@dataclass(frozen=True)
class Statement:
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


@dataclass(frozen=True)
class Counterexample:
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


@dataclass(frozen=True)
class StrongCertificate:
    comparisons: int
    vacuous: int
    context_in_support: bool
    counterexample: Counterexample | None

    def to_json_dict(self) -> dict:
        return {
            "comparisons": self.comparisons,
            "vacuous": self.vacuous,
            "context_in_support": self.context_in_support,
            "counterexample": (
                None
                if self.counterexample is None
                else self.counterexample.to_json_dict()
            ),
        }


@dataclass(frozen=True)
class ClassCounterexample:
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


@dataclass(frozen=True)
class ClassReport:
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
            "counterexample": (
                None
                if self.counterexample is None
                else self.counterexample.to_json_dict()
            ),
        }


@dataclass(frozen=True)
class WeakCertificate:
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


@dataclass(frozen=True)
class Verdict:
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
# statement validation helpers
# ---------------------------------------------------------------------------


def _normalize_sets(
    table: Table,
    x: Iterable[str],
    z: Iterable[str],
    y: Iterable[str],
    context: Mapping[str, str] | None,
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    schema = table.schema
    xs, zs, ys = schema.order(x), schema.order(z), schema.order(y)
    if not xs or not zs:
        raise StatementError("X and Z must be nonempty")
    groups = [set(xs), set(zs), set(ys)]
    if context is not None:
        schema.check_partial(context)
        groups.append(set(context))
    for i, a in enumerate(groups):
        for b in groups[i + 1 :]:
            if a & b:
                raise StatementError("variable sets must be pairwise disjoint")
    return xs, zs, ys


def _require_alignment(
    table: Table, x: Sequence[str], given_side: Iterable[str]
) -> None:
    """Conditional-shaped tables fix which sets are readable directly."""
    if table.kind == JOINT:
        return
    assert table.targets is not None and table.givens is not None
    if set(x) != set(table.targets):
        raise StatementError("X must equal the table's target-set")
    if set(given_side) != set(table.givens):
        raise StatementError(
            "conditioning variables must equal the table's given-set"
        )


def _context_tuple(
    table: Table, context: Mapping[str, str]
) -> tuple[tuple[str, str], ...]:
    names = table.schema.order(context)
    return tuple((n, context[n]) for n in names)


def _sorted_configs(
    table: Table, names: Sequence[str], values: Iterable[Config]
) -> tuple[Config, ...]:
    domains = [table.schema.variable(n).domain for n in names]

    def key(cfg: Config) -> tuple[int, ...]:
        return tuple(d.index(v) for d, v in zip(domains, cfg))

    return tuple(sorted(values, key=key))


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
    context_in_support = (
        True if not context else table.partial_mass(context) > 0
    )
    comparisons = 0
    vacuous = 0
    counterexample: Counterexample | None = None

    if table.kind == JOINT:
        # Group masses once; all conditionals are dictionary lookups after.
        y_pos = schema.positions(tuple(y_vars) + tuple(context))
        yz_pos = schema.positions(tuple(y_vars) + tuple(context) + tuple(z_vars))
        x_pos = schema.positions(x_vars)
        mass_g: dict[Config, Fraction] = {}
        mass_gz: dict[Config, Fraction] = {}
        mass_gx: dict[tuple[Config, Config], Fraction] = {}
        mass_gzx: dict[tuple[Config, Config], Fraction] = {}
        zero = Fraction(0)
        for cfg, value in table.rows.items():
            g = tuple(cfg[p] for p in y_pos)
            gz = tuple(cfg[p] for p in yz_pos)
            xv = tuple(cfg[p] for p in x_pos)
            mass_g[g] = mass_g.get(g, zero) + value
            mass_gz[gz] = mass_gz.get(gz, zero) + value
            mass_gx[(g, xv)] = mass_gx.get((g, xv), zero) + value
            mass_gzx[(gz, xv)] = mass_gzx.get((gz, xv), zero) + value

        ctx_vals = {n: v for n, v in context.items()}
        g_names = schema.order(tuple(y_vars) + tuple(ctx_vals))
        gz_names = schema.order(tuple(g_names) + tuple(z_vars))
        for y_cfg in schema.configs(y_vars):
            y_map = dict(zip(y_vars, y_cfg))
            g_key = tuple({**y_map, **ctx_vals}[n] for n in g_names)
            pg = mass_g.get(g_key, zero)
            if pg == 0:
                vacuous += 1
                continue
            rhs = {
                x_cfg: mass_gx.get((g_key, x_cfg), zero) / pg
                for x_cfg in schema.configs(x_vars)
            }
            for z_cfg in schema.configs(z_vars):
                z_map = dict(zip(z_vars, z_cfg))
                gz_key = tuple({**y_map, **ctx_vals, **z_map}[n] for n in gz_names)
                pgz = mass_gz.get(gz_key, zero)
                if pgz == 0:
                    vacuous += 1
                    continue
                for x_cfg in schema.configs(x_vars):
                    comparisons += 1
                    lhs = mass_gzx.get((gz_key, x_cfg), zero) / pgz
                    if lhs != rhs[x_cfg] and counterexample is None:
                        counterexample = Counterexample(
                            x_cfg, y_cfg, z_cfg, lhs, None, rhs[x_cfg]
                        )
        return counterexample is None, StrongCertificate(
            comparisons, vacuous, context_in_support, counterexample
        )

    # Conditional-shaped path: constancy of stored values across z.
    assert table.givens is not None
    given_support = {
        schema.project(cfg, table.givens) for cfg in table.rows
    }
    for y_cfg in schema.configs(y_vars):
        y_map = dict(zip(y_vars, y_cfg))
        for x_cfg in schema.configs(x_vars):
            x_map = dict(zip(x_vars, x_cfg))
            baseline: tuple[Config, Fraction] | None = None
            for z_cfg in schema.configs(z_vars):
                z_map = dict(zip(z_vars, z_cfg))
                full = schema.merge(x_map, y_map, dict(context), z_map)
                g_proj = schema.project(full, table.givens)
                if table.kind != RAW and g_proj not in given_support:
                    vacuous += 1
                    continue
                value = table.value(full)
                if baseline is None:
                    baseline = (z_cfg, value)
                    continue
                comparisons += 1
                if value != baseline[1] and counterexample is None:
                    counterexample = Counterexample(
                        x_cfg, y_cfg, z_cfg, value, baseline[0], baseline[1]
                    )
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
    xs, zs, ys = _normalize_sets(table, x, z, y, None)
    _require_alignment(table, xs, tuple(ys) + tuple(zs))
    holds, cert = _strong_check(table, xs, zs, ys, {})
    return Verdict(Statement(CI, xs, zs, ys), holds, cert)


def check_csi(
    table: Table,
    x: Iterable[str],
    z: Iterable[str],
    y: Iterable[str],
    context: Mapping[str, str],
) -> Verdict:
    """Strong independence of X and Z given Y under a fixed context."""
    if not context:
        raise StatementError("CSI requires a nonempty context")
    xs, zs, ys = _normalize_sets(table, x, z, y, context)
    _require_alignment(table, xs, tuple(ys) + tuple(zs) + tuple(context))
    holds, cert = _strong_check(table, xs, zs, ys, context)
    statement = Statement(CSI, xs, zs, ys, _context_tuple(table, context))
    return Verdict(statement, holds, cert)


def check_pci(
    table: Table,
    x: Iterable[str],
    z: Iterable[str],
    y_value: Mapping[str, str],
) -> Verdict:
    """Irrelevance of Z to X at one fixed conditioning value."""
    if not y_value:
        raise StatementError("PCI requires a fixed conditioning value")
    xs, zs, ys = _normalize_sets(table, x, z, (), y_value)
    _require_alignment(table, xs, tuple(zs) + tuple(y_value))
    holds, cert = _strong_check(table, xs, zs, ys, y_value)
    statement = Statement(PCI, xs, zs, (), _context_tuple(table, y_value))
    return Verdict(statement, holds, cert)


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
    schema = table.schema
    x_values = _sorted_configs(table, x_vars, projected_domain(block, support, x_vars))
    y_values = _sorted_configs(table, y_vars, projected_domain(block, support, y_vars))
    z_values = _sorted_configs(table, z_vars, projected_domain(block, support, z_vars))
    assert len(y_values) == 1, "composed class spans several Y-values"
    y_map = dict(zip(y_vars, y_values[0]))
    vacuous = len(z_values) < 2
    counterexample: ClassCounterexample | None = None

    joint = table.kind == JOINT
    if joint:
        zero = Fraction(0)
        mass_total = zero
        mass_x: dict[Config, Fraction] = {}
        mass_z: dict[Config, Fraction] = {}
        x_pos = support.positions(x_vars)
        z_pos = support.positions(z_vars)
        for i in block:
            value = table.value(support.rows[i][1])
            mass_total += value
            xv = support.project(i, x_pos)
            zv = support.project(i, z_pos)
            mass_x[xv] = mass_x.get(xv, zero) + value
            mass_z[zv] = mass_z.get(zv, zero) + value
    # Joint tables compare class-restricted conditionals, which must also
    # equal the class marginal of x; conditional-shaped tables compare the
    # stored values.
    for x_cfg in x_values:
        x_map = dict(zip(x_vars, x_cfg))
        expected = mass_x[x_cfg] / mass_total if joint else None
        baseline: tuple[Config, Fraction] | None = None
        for z_cfg in z_values:
            z_map = dict(zip(z_vars, z_cfg))
            value = table.value(schema.merge(x_map, y_map, z_map))
            if joint:
                value /= mass_z[z_cfg]
            if baseline is None:
                baseline = (z_cfg, value)
            elif value != baseline[1] and counterexample is None:
                counterexample = ClassCounterexample(
                    x_cfg, z_cfg, value, baseline[0], baseline[1], "constancy"
                )
            if joint and value != expected and counterexample is None:
                counterexample = ClassCounterexample(
                    x_cfg, z_cfg, value, None, expected, "marginal"
                )

    return ClassReport(
        support.label_block(block),
        x_values,
        y_values,
        z_values,
        counterexample is None,
        vacuous,
        counterexample,
    )


def _weak_certificate(
    table: Table,
    support: SupportSet,
    x_vars: Sequence[str],
    y_vars: Sequence[str],
    z_vars: Sequence[str],
) -> WeakCertificate:
    if len(support) == 0:
        return WeakCertificate((), True, None, (), True)
    p = theta(support, tuple(x_vars) + tuple(y_vars))
    q = theta(support, tuple(y_vars) + tuple(z_vars))
    result = commutes(p, q)
    if not result.commutes:
        assert result.witness is not None
        i, k = result.witness
        witness = (support.rows[i][0], support.rows[k][0])
        return WeakCertificate(support.labels, False, witness, (), False)
    assert result.join is not None
    classes = tuple(
        _class_report(table, support, block, x_vars, y_vars, z_vars)
        for block in result.join.blocks
    )
    return WeakCertificate(support.labels, True, None, classes, False)


def _check_nonembedded(
    table: Table,
    x: Iterable[str],
    z: Iterable[str],
    y: Iterable[str],
    context: Mapping[str, str] | None,
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    xs, zs, ys = _normalize_sets(table, x, z, y, context)
    covered = set(xs) | set(zs) | set(ys)
    if context is not None:
        covered |= set(context)
    if covered != set(table.schema.names):
        raise StatementError(
            "weak statements must cover the full variable set"
        )
    return xs, zs, ys


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
    if not context:
        raise StatementError("CWI requires a nonempty context")
    xs, zs, _ = _check_nonembedded(table, x, z, (), context)
    ctx_vars = table.schema.order(context)
    _require_alignment(table, xs, tuple(ctx_vars) + tuple(zs))
    support = restrict_context(table.support(), context)
    cert = _weak_certificate(table, support, xs, ctx_vars, zs)
    if cert.vacuous:
        holds = True
    elif not cert.commutes:
        holds = False
    else:
        witnesses = [c for c in cert.classes if c.satisfied and not c.vacuous]
        holds = bool(witnesses) or (
            len(cert.classes) == 1 and cert.classes[0].satisfied
        )
    statement = Statement(CWI, xs, zs, (), _context_tuple(table, context))
    return Verdict(statement, holds, cert)


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
    xs, zs, ys = _check_nonembedded(table, x, z, y, None)
    _require_alignment(table, xs, tuple(ys) + tuple(zs))
    support = table.support()
    cert = _weak_certificate(table, support, xs, ys, zs)
    if cert.vacuous:
        holds = True
    elif not cert.commutes:
        holds = False
    else:
        holds = all(c.satisfied for c in cert.classes)
    return Verdict(Statement(WI, xs, zs, ys), holds, cert)


# kind -> (roles, roles that must be nonempty, context role, checker), for
# enumeration and replay. The checkers are looked up as module globals at
# call time.
_KINDS = {
    CI: ("XZY", "XZ", None, lambda t, g, c: check_ci(t, g["X"], g["Z"], g["Y"])),
    CSI: ("XZYC", "XZC", "C", lambda t, g, c: check_csi(t, g["X"], g["Z"], g["Y"], c)),
    PCI: ("XZY", "XZY", "Y", lambda t, g, c: check_pci(t, g["X"], g["Z"], c)),
    CWI: ("XZC", "XZC", "C", lambda t, g, c: check_cwi(t, g["X"], g["Z"], c)),
    WI: ("XZY", "XZ", None, lambda t, g, c: check_wi(t, g["X"], g["Z"], g["Y"])),
}


def replay(table: Table, verdict: Verdict) -> bool:
    """Re-run the check named by a verdict and compare certificates exactly."""
    s = verdict.statement
    if s.kind not in _KINDS:
        raise StatementError(f"unknown statement kind {s.kind!r}")
    context = None if s.context is None else {n: v for n, v in s.context}
    fresh = _KINDS[s.kind][3](table, {"X": s.x, "Z": s.z, "Y": s.y}, context)
    return fresh.to_json_dict() == verdict.to_json_dict()


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Limits:
    max_contexts: int | None = None
    max_statements: int | None = None


@dataclass(frozen=True)
class EnumerationResult:
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
    express (X not equal to its target-set) are skipped.
    """
    kind_order = [k for k in STATEMENT_KINDS if k in set(kinds)]
    unknown = set(kinds) - set(STATEMENT_KINDS)
    if unknown:
        raise StatementError(f"unknown statement kinds: {sorted(unknown)}")
    names = sorted(table.schema.names)
    verdicts: list[Verdict] = []
    truncated = False

    def contexts(ctx_vars: Sequence[str]):
        nonlocal truncated
        count = 0
        for values in table.schema.configs(ctx_vars):
            if limits.max_contexts is not None and count >= limits.max_contexts:
                truncated = True
                return
            count += 1
            yield dict(zip(table.schema.order(ctx_vars), values))

    for kind in kind_order:
        roles, required, ctx_role, check = _KINDS[kind]
        for vec in product(roles, repeat=len(names)):
            groups = _split(names, vec)
            if not all(groups[r] for r in required):
                continue
            # A statement the table cannot express fails for every context.
            for ctx in contexts(groups[ctx_role]) if ctx_role else ({},):
                try:
                    verdict = check(table, groups, ctx)
                except StatementError:
                    break
                if (
                    limits.max_statements is not None
                    and len(verdicts) >= limits.max_statements
                ):
                    return EnumerationResult(tuple(verdicts), True)
                verdicts.append(verdict)
    return EnumerationResult(tuple(verdicts), truncated)


def _split(names: Sequence[str], vec: Sequence[str]) -> dict[str, tuple[str, ...]]:
    return {role: tuple(n for n, r in zip(names, vec) if r == role) for role in "XZYC"}
