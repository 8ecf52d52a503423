"""Command-line surface: load tables, run checks, derive closures, coarsen.

Verbs that answer a question (validate, check, enumerate, derive, probe,
commute) emit a JSON report embedding the tool version and the digest of
the instantiated table. Verbs that transform a table (nest, unnest) emit
the resulting document itself in canonical form, so outputs diff cleanly
and pipe into each other.
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__, axioms, granular, independence, tables
from .errors import WeakindError


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2))


def _load_table(path: str, format: str, check: bool = True) -> tables.Table:
    return tables.load_table(_read(path), format=format, check=check)


def _envelope(command: str, table: tables.Table | None = None) -> dict:
    doc: dict = {"version": __version__, "command": command}
    if table is not None:
        doc["table_digest"] = table.digest()
    return doc


def _split_list(value: str | None) -> tuple[str, ...]:
    if not value:
        return ()
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _parse_context(value: str | None) -> dict[str, str]:
    context: dict[str, str] = {}
    if not value:
        return context
    for pair in value.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise click.UsageError(f"malformed context assignment {pair!r}")
        name, _, val = pair.partition("=")
        context[name.strip()] = val.strip()
    return context


class _Die(click.ClickException):
    exit_code = 2


def _guard(fn):
    """Map package and file errors to exit status 2 with a one-line diagnostic."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (WeakindError, OSError, json.JSONDecodeError) as exc:
            raise _Die(str(exc)) from exc

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Independence detection and granular coarsening for probability tables."""


@main.command()
@click.option("--format", "format_", default="json", type=click.Choice(["json", "csv"]))
@click.option("--assert", "assert_", is_flag=True, help="exit 1 when invalid")
@click.argument("input", default="-")
@_guard
def validate(format_: str, assert_: bool, input: str) -> None:
    """Report every violated table invariant."""
    table = _load_table(input, format_, check=False)
    report = table.validate()
    doc = _envelope("validate", table)
    doc.update(report.to_json_dict())
    _emit(doc)
    if assert_ and not report.ok:
        sys.exit(1)


@main.command()
@click.option("--kind", required=True, type=click.Choice(["ci", "csi", "pci", "cwi", "wi"]))
@click.option("--x", "x_", required=True, help="comma-separated variables")
@click.option("--z", "z_", required=True, help="comma-separated variables")
@click.option("--y", "y_", default="", help="comma-separated variables")
@click.option("--context", "context_", default="", help="VAR=VAL,... context")
@click.option("--assert", "assert_", is_flag=True, help="exit 1 on a false verdict")
@click.option("--format", "format_", default="json", type=click.Choice(["json", "csv"]))
@click.option("--pretty", is_flag=True, help="human-readable rendering")
@click.argument("input", default="-")
@_guard
def check(
    kind: str,
    x_: str,
    z_: str,
    y_: str,
    context_: str,
    assert_: bool,
    format_: str,
    pretty: bool,
    input: str,
) -> None:
    """Check one independence statement and print its certificate."""
    table = _load_table(input, format_)
    x, z, y = _split_list(x_), _split_list(z_), _split_list(y_)
    context = _parse_context(context_)
    if kind == "ci":
        verdict = independence.check_ci(table, x, z, y)
    elif kind == "csi":
        verdict = independence.check_csi(table, x, z, y, context)
    elif kind == "pci":
        verdict = independence.check_pci(table, x, z, context)
    elif kind == "cwi":
        verdict = independence.check_cwi(table, x, z, context)
    else:
        verdict = independence.check_wi(table, x, z, y)
    doc = _envelope("check", table)
    doc.update(verdict.to_json_dict())
    if pretty:
        click.echo(_render_verdict(verdict))
    else:
        _emit(doc)
    if assert_ and not verdict.holds:
        sys.exit(1)


def _render_verdict(verdict: independence.Verdict) -> str:
    s = verdict.statement
    ctx = "" if not s.context else ", " + ",".join(f"{n}={v}" for n, v in s.context)
    head = (
        f"{s.kind}({','.join(s.x)} ⊥ {','.join(s.z)} | {','.join(s.y)}{ctx})"
        f" -> {'holds' if verdict.holds else 'fails'}"
    )
    lines = [head]
    cert = verdict.certificate
    if isinstance(cert, independence.WeakCertificate):
        lines.append(f"  commutes: {cert.commutes}")
        for i, cls in enumerate(cert.classes, start=1):
            lines.append(
                f"  class {i}: {{{', '.join(cls.labels)}}}"
                f" class-ci={cls.satisfied} vacuous={cls.vacuous}"
            )
    elif cert.counterexample is not None:
        ce = cert.counterexample
        lines.append(
            f"  counterexample: x={ce.x} y={ce.y} z={ce.z}"
            f" value={tables.frac_str(ce.value)} reference={tables.frac_str(ce.reference)}"
        )
    return "\n".join(lines)


@main.command("enumerate")
@click.option("--kinds", required=True, help="comma-separated statement kinds")
@click.option("--max-context", type=int, default=None)
@click.option("--max-statements", type=int, default=None)
@click.option("--format", "format_", default="json", type=click.Choice(["json", "csv"]))
@click.argument("input", default="-")
@_guard
def enumerate_cmd(
    kinds: str,
    max_context: int | None,
    max_statements: int | None,
    format_: str,
    input: str,
) -> None:
    """Enumerate all nonembedded statements of the given kinds with verdicts."""
    table = _load_table(input, format_)
    limits = independence.Limits(
        max_contexts=max_context, max_statements=max_statements
    )
    result = independence.enumerate_statements(
        table, tuple(k.upper() for k in _split_list(kinds)), limits
    )
    doc = _envelope("enumerate", table)
    doc.update(result.to_json_dict())
    _emit(doc)


@main.command()
@click.option("--premises", "premises_", default=None, help="JSON premise file")
@click.option("--universe", "universe_", required=True, help="comma-separated variables")
@click.option("--rules", "rules_", default=",".join(axioms.ALL_RULES))
@_guard
def derive(premises_: str | None, universe_: str, rules_: str) -> None:
    """Forward-chain the inference rules to a closure with derivation traces."""
    universe = _split_list(universe_)
    premises = []
    if premises_ is not None:
        docs = json.loads(_read(premises_))
        if not isinstance(docs, list):
            raise _Die("premise file must be a JSON list of statements")
        premises = [axioms.statement_from_json(d) for d in docs]
    rules = tuple(r.upper() for r in _split_list(rules_))
    result = axioms.closure(premises, universe, rules)
    doc = _envelope("derive")
    doc.update(result.to_json_dict())
    _emit(doc)


@main.command()
@click.option("--vars", "vars_", type=int, default=3)
@click.option("--domain-size", type=int, default=2)
@click.option("--trials", type=int, default=100)
@click.option("--seed", type=int, default=0)
@click.option("--rules", "rules_", default=",".join(axioms.ALL_RULES))
@_guard
def probe(
    vars_: int, domain_size: int, trials: int, seed: int, rules_: str
) -> None:
    """Empirically probe rule soundness against random tables."""
    rules = tuple(r.upper() for r in _split_list(rules_))
    report = axioms.soundness_probe(vars_, domain_size, trials, seed, rules)
    doc = _envelope("probe")
    doc.update(report.to_json_dict())
    _emit(doc)


def _load_table_or_nested(path: str) -> tables.Table | granular.NestedTable:
    text = _read(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _Die(f"malformed JSON document: {exc}") from exc
    if isinstance(doc, dict) and "attributes" in doc:
        return granular.load_nested(text)
    return tables.load_table(text)


@main.command()
@click.option("--by", "by_", required=True, help="comma-separated attributes to coarsen")
@click.option("--as", "as_", required=True, help="name of the new nested attribute")
@click.argument("input", default="-")
@_guard
def nest(by_: str, as_: str, input: str) -> None:
    """Coarsen attributes into a nested attribute; emits the nested document."""
    table = _load_table_or_nested(input)
    result = granular.nest(table, as_, _split_list(by_))
    click.echo(granular.serialize_nested(result), nl=False)


@main.command()
@click.option("--attr", required=True, help="nested attribute to reveal")
@click.argument("input", default="-")
@_guard
def unnest(attr: str, input: str) -> None:
    """Reveal a nested attribute; emits the refined document."""
    table = _load_table_or_nested(input)
    if not isinstance(table, granular.NestedTable):
        raise _Die("input has no nested attributes")
    result = granular.unnest(table, attr)
    if isinstance(result, tables.Table):
        click.echo(tables.serialize_table(result), nl=False)
    else:
        click.echo(granular.serialize_nested(result), nl=False)


@main.command()
@click.option("--x", "x_", required=True, help="comma-separated attributes")
@click.option("--z", "z_", required=True, help="comma-separated attributes")
@click.option("--format", "format_", default="json", type=click.Choice(["json", "csv"]))
@click.option("--assert", "assert_", is_flag=True, help="exit 1 when orders disagree")
@click.argument("input", default="-")
@_guard
def commute(x_: str, z_: str, format_: str, assert_: bool, input: str) -> None:
    """Run both coarsening orders and report whether they agree."""
    table = _load_table(input, format_)
    report = granular.nest_commutes(table, _split_list(x_), _split_list(z_))
    doc = _envelope("commute", table)
    doc.update(report.to_json_dict())
    _emit(doc)
    if assert_ and not report.equal:
        sys.exit(1)


if __name__ == "__main__":
    main()
