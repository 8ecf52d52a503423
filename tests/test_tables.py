import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakind import tables
from weakind.errors import (
    LimitError,
    NormalizationError,
    ParseError,
    SchemaError,
    WeakindError,
)

import oracles
from conftest import load_fixture


def test_json_decimals_parse_exactly(nest_demo):
    assert nest_demo.rows[("1", "1", "2")] == Fraction(1, 8)
    assert nest_demo.rows[("1", "3", "4")] == Fraction(1, 4)
    assert sorted(nest_demo.rows.values()) == sorted(
        [Fraction(1, 8)] * 6 + [Fraction(1, 4)]
    )
    assert nest_demo.total_mass() == 1


def test_empty_joint_rejected():
    doc = {
        "variables": [{"name": "A", "domain": ["0", "1"]}],
        "kind": "joint",
        "rows": [],
    }
    with pytest.raises(NormalizationError):
        tables.load_table(json.dumps(doc))


def test_raw_instantiation_accepted(cwi_cpt):
    # Structural constraints of the recorded instantiation, cross-checked by
    # the brute-force contextual oracle.
    p1 = cwi_cpt.rows.get(("0", "0", "0", "0"), 0)
    p3 = cwi_cpt.rows.get(("2", "0", "2", "2"), 0)
    p4 = cwi_cpt.rows.get(("2", "0", "3", "2"), 0)
    assert p1 != 0
    assert p3 != p4
    assert cwi_cpt.kind == "raw"
    assert oracles.cwi_oracle(cwi_cpt, ("X",), ("Z", "W"), {"Y": "0"})
    assert not oracles.cwi_oracle(cwi_cpt, ("X",), ("Z", "W"), {"Y": "1"})


def test_validate_strict_joint_clean(nest_demo):
    assert nest_demo.validate().ok


def test_validate_conditional_normalization_violations(csi_cpt):
    # The same rows cannot form a strict conditional table: the two
    # given-configurations whose target values are both 2/5 sum to 4/5.
    cond = tables.Table(
        csi_cpt.schema, dict(csi_cpt.rows), "conditional", ("X",), ("Y", "Z", "W")
    )
    report = cond.validate()
    assert not report.ok
    bad = {v.config for v in report.violations}
    assert bad == {("1", "0", "0"), ("1", "0", "1")}
    assert all(v.code == "given-sum" for v in report.violations)


def test_validate_raw_mode_skips_sums(csi_cpt):
    # The rows that violate the conditional sums above form a valid raw table.
    assert csi_cpt.kind == "raw" and csi_cpt.validate().ok


def test_wi_cpt_columns_normalize(wi_cpt):
    # Normalization oracle for the recorded instantiation: every supported
    # given-configuration's column sums to exactly 1.
    by_given = {}
    for cfg, value in wi_cpt.rows.items():
        g = oracles._project(wi_cpt, cfg, wi_cpt.givens)
        by_given[g] = by_given.get(g, Fraction(0)) + value
    assert set(by_given.values()) == {Fraction(1)}


def test_support_document_order(cwi_cpt, wi_cpt):
    sup = cwi_cpt.support()
    assert len(sup) == 15
    assert sup.labels[0] == "t1" and sup.labels[-1] == "t15"
    assert len(wi_cpt.support()) == 32


def test_support_drops_zero_rows():
    doc = {
        "variables": [{"name": "A", "domain": ["0", "1"]}],
        "kind": "joint",
        "rows": [
            {"config": ["0"], "p": "1"},
            {"config": ["1"], "p": "0"},
        ],
    }
    table = tables.load_table(json.dumps(doc))
    assert len(table.support()) == 1
    assert ("1",) not in table.rows


def test_all_zero_table_has_empty_support():
    schema = tables.VariableSchema((tables.Variable("A", ("0", "1")),))
    table = tables.Table(schema, {("0",): Fraction(0), ("1",): Fraction(0)}, "raw",
                         ("A",), ())
    assert len(table.support()) == 0


def test_value_outside_domain_rejected():
    doc = {
        "variables": [{"name": "A", "domain": ["0", "1"]}],
        "kind": "joint",
        "rows": [{"config": ["2"], "p": "1"}],
    }
    with pytest.raises(SchemaError, match="value '2' outside domain of variable 'A'"):
        tables.load_table(json.dumps(doc))
    schema = tables.VariableSchema(
        (tables.Variable("A", ("0", "1")), tables.Variable("B", ("0", "1")))
    )
    with pytest.raises(SchemaError, match="value '2' outside domain of variable 'B'"):
        tables.Table(schema, {("1", "2"): Fraction(1)})


def test_duplicate_config_rejected():
    doc = {
        "variables": [{"name": "A", "domain": ["0", "1"]}],
        "kind": "joint",
        "rows": [
            {"config": ["0"], "p": "1/2"},
            {"config": ["0"], "p": "1/2"},
        ],
    }
    with pytest.raises(SchemaError):
        tables.load_table(json.dumps(doc))


def test_constructor_and_loader_share_one_row_checker():
    """``Table(...)`` checks its rows with the loaders' row checker: a key is any
    sequence of domain values, kept as a tuple, and two keys that spell one
    configuration are a duplicate, found before the second literal is read, also
    when the first row is zero. Only the loader reads a value as ``str(value)``."""
    schema = tables.VariableSchema(
        (tables.Variable("A", ("0", "1")), tables.Variable("B", ("0", "1")))
    )
    assert tables.Table(schema, {"01": "1"}).rows == {("0", "1"): Fraction(1)}
    for first, second in ((Fraction(1, 2), "x"), (0, Fraction(1))):
        with pytest.raises(SchemaError, match=r"duplicate configuration: \('0', '1'\)"):
            tables.Table(schema, {("0", "1"): first, "01": second})
    with pytest.raises(SchemaError, match="value 0 outside domain of variable 'A'"):
        tables.Table(schema, {(0, 1): Fraction(1)})
    doc = {"variables": [{"name": "A", "domain": ["0", "1"]},
                         {"name": "B", "domain": ["0", "1"]}],
           "rows": [{"config": [0, 1], "p": "1"}]}
    assert tables.load_table(json.dumps(doc)).rows == {("0", "1"): Fraction(1)}


def test_negative_probability_rejected():
    doc = {
        "variables": [{"name": "A", "domain": ["0", "1"]}],
        "kind": "joint",
        "rows": [{"config": ["0"], "p": "-1/2"}],
    }
    with pytest.raises(SchemaError):
        tables.load_table(json.dumps(doc))


def test_malformed_document_rejected():
    with pytest.raises(ParseError):
        tables.load_table("{not json")
    with pytest.raises(ParseError):
        tables.load_table('{"kind": "joint"}')


def test_json_round_trip_all_fixtures():
    for name in (
        "cond_cpt.json",
        "csi_cpt.json",
        "cwi_cpt.json",
        "escape_cpt.json",
        "wi_cpt.json",
        "nest_demo.json",
        "noncommuting.json",
    ):
        table = load_fixture(name)
        again = tables.load_table(tables.serialize_table(table))
        assert again == table
        # Canonical form is a fixed point.
        assert tables.serialize_table(again) == tables.serialize_table(table)


def test_csv_round_trip(nest_demo):
    text = oracles.naive_serialize_table(nest_demo, "csv")
    again = tables.load_table(text, format="csv")
    assert again.rows == nest_demo.rows
    assert again.schema.names == nest_demo.schema.names


def test_uniform_joint_extension(wi_cpt):
    joint = tables.uniform_joint_extension(wi_cpt)
    assert joint.kind == "joint"
    assert joint.total_mass() == 1
    # Support is unchanged and conditionals inside columns are preserved
    # because every supported column of this instantiation sums to one.
    assert set(joint.rows) == set(wi_cpt.rows)
    x, g = {"X": "3"}, {"Y": "1", "Z": "1", "W": "1"}
    assert oracles.cond_oracle(joint, x, g) == Fraction(7, 10)


# -- canonical JSON writer, literal parser and exact sums against twins ------

# Text that needs JSON escapes: quote, backslash, control characters, DEL,
# non-ASCII and non-BMP characters, a line separator and a lone surrogate.
SPECIAL = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\U0001d538", "\u2028", "\ud800"]
TEXT = st.one_of(
    st.text(max_size=4),
    st.lists(st.sampled_from(SPECIAL + ["a", "0"]), max_size=4).map("".join),
)
MASS = st.one_of(
    st.fractions(min_value=0, max_denominator=10**6),
    st.builds(Fraction, st.integers(0, 10**40), st.sampled_from([1, 3, 8, 10**20 + 1])),
)


@st.composite
def any_tables(draw):
    """Joint, conditional and raw tables of 0-3 variables, any text, any support."""
    names = draw(st.lists(TEXT, max_size=3, unique=True))
    schema = tables.VariableSchema(tuple(
        tables.Variable(name, tuple(draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))))
        for name in names
    ))
    configs = list(schema.configs())
    chosen = draw(st.lists(st.sampled_from(configs), unique=True, max_size=8))
    rows = {config: draw(MASS) for config in chosen}
    kind = draw(st.sampled_from(tables.KINDS))
    if kind == tables.JOINT:
        return tables.Table(schema, rows)
    givens = [n for n in names if draw(st.booleans())]
    targets = [n for n in names if n not in givens]
    return tables.Table(schema, rows, kind, tuple(targets), tuple(givens))


EMPTY = tables.VariableSchema(())


def _uniform(*domains):
    """A joint table of full support over variables V0, V1, ... with these domains."""
    schema = tables.VariableSchema(tuple(
        tables.Variable(f"V{i}", tuple(domain)) for i, domain in enumerate(domains)
    ))
    configs = list(schema.configs())
    return tables.Table(schema, {config: Fraction(1, len(configs)) for config in configs})


# Domains in and out of str order: "10" < "9" and "a" < "b" as strings.
IN_ORDER, OUT_OF_ORDER = (["0", "\u00e9"], ["0", "1"]), (["9", "10"], ["b", "a"])


def test_str_order_is_decided_per_schema():
    assert all(_uniform(d).schema.str_ordered for d in IN_ORDER)
    assert not any(_uniform(d).schema.str_ordered for d in OUT_OF_ORDER)
    assert not _uniform(*IN_ORDER, OUT_OF_ORDER[0]).schema.str_ordered
    assert _uniform().schema.str_ordered


@given(any_tables())
@settings(max_examples=300, deadline=None)
@example(tables.Table(EMPTY, {}))
@example(tables.Table(EMPTY, {(): Fraction(1)}))
@example(tables.Table(EMPTY, {}, "raw", (), ()))
@example(_uniform(["9", "10"]))
@example(_uniform(["b", "a"]))
@example(_uniform(["0", "\u00e9"]))
@example(_uniform(["0", "1"], ["9", "10"], ["0", "\u00e9"], ["b", "a"]))
@example(_uniform(["0", "1"], ["0", "\u00e9"]))
def test_serialize_matches_json_dumps_twin(table):
    text = tables.serialize_table(table)
    assert text == oracles.naive_serialize_table(table)
    assert table.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert tables.load_table(text, check=False) == table


@given(st.lists(st.sampled_from(IN_ORDER + OUT_OF_ORDER), max_size=4), st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_is_the_keyed_domain_order_sort(domains, data):
    """``canonical(configs, names)`` sorts projections on ``names`` as a sort
    keyed by each value's domain position does, whether the schema takes the
    plain sort (every domain in ``str`` order) or the keyed one."""
    schema = tables.VariableSchema(tuple(
        tables.Variable(f"V{i}", tuple(domain)) for i, domain in enumerate(domains)
    ))
    names = data.draw(st.permutations(schema.names))[: data.draw(st.integers(0, len(domains)))]
    for subset in (names, schema.names):
        declared = [schema.variable(n).domain for n in subset]
        configs = data.draw(st.lists(st.sampled_from(list(product(*declared))), unique=True))
        expected = sorted(configs, key=lambda c: tuple(map(tuple.index, declared, c)))
        assert schema.canonical(configs, subset) == expected
    assert schema.canonical(configs) == expected  # names default to every variable


DIGIT_SETS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


@st.composite
def literals(draw):
    """Probability literals from Fraction's grammar, and near misses of it.

    Exponents stay below 1,000, far inside ``MAX_LITERAL_DIGITS``.
    """
    digits = draw(st.sampled_from(DIGIT_SETS))

    def number(min_size=1, max_size=3):
        groups = draw(st.lists(
            st.text(digits, min_size=1, max_size=3), min_size=min_size, max_size=max_size
        ))
        return draw(st.sampled_from(["", "_", "__"])).join(groups)

    form = draw(st.sampled_from(["int", "ratio", "decimal", "junk"]))
    if form == "int":
        body = number()
    elif form == "ratio":
        slash = draw(st.sampled_from(["/", " / ", "//"]))
        body = number(0) + slash + number(0)
    elif form == "decimal":
        body = number(0) + draw(st.sampled_from([".", ""])) + number(0)
        if draw(st.booleans()):
            body += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"])) + number(1, 1)
    else:
        body = draw(st.text(max_size=6))
    space = st.sampled_from(["", " ", "\t"])
    sign = draw(st.sampled_from(["", "+", "-"]))
    return draw(space) + sign + body + draw(space)


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@given(literals())
@settings(max_examples=1000, deadline=None)
@example("007/010")
@example("0/0")
@example("1/0")
@example(" 1/2")
@example("+1/2")
@example("1_0/3")
@example("1e-3")
@example("\u0661/\u0662")
@example("12/\u0663")
@example("")
def test_literal_parser_matches_fraction(text):
    got = _outcome(tables._parse_literal, text)
    assert got == _outcome(Fraction, text)
    if isinstance(got, Fraction):
        assert type(got) is Fraction
        if got >= 0:
            assert tables._to_fraction(text) == got
        else:
            with pytest.raises(SchemaError):
                tables._to_fraction(text)
    else:
        with pytest.raises(ParseError, match="invalid probability literal") as info:
            tables._to_fraction(text)
        assert (type(info.value.__cause__), str(info.value.__cause__)) == got


BOUND = tables.MAX_LITERAL_DIGITS


@pytest.mark.parametrize("within, past", [
    ("1" * BOUND, "1" * (BOUND + 1)),
    ("1/" + "3" * BOUND, "1/" + "3" * (BOUND + 1)),
    ("1_" + "1" * (BOUND - 1), "1_" + "1" * BOUND),
    (f"1e{BOUND - 1}", f"1e{BOUND}"),
    (f"1e-{BOUND - 1}", f"1e-{BOUND}"),
    ("0." + "1" * (BOUND - 1), "0." + "1" * BOUND),
    ("1" * BOUND + "e-1", "1" * (BOUND + 1) + "e-1"),
], ids=["int", "denominator", "underscore", "exponent", "negative-exponent", "decimal",
        "long-mantissa"])
def test_literal_digit_bound(within, past):
    assert tables._parse_literal(within) == Fraction(within)
    tables.frac_str(tables._to_fraction(within))  # printable
    with pytest.raises(LimitError, match=f"more than {BOUND} digits"):
        tables._to_fraction(past)


@given(st.lists(st.one_of(MASS, st.fractions(max_denominator=50)), max_size=30))
@settings(max_examples=300, deadline=None)
def test_common_weights_scale_to_lcm(values):
    lcm, weights = tables.common_weights(values)
    assert lcm == math.lcm(*(v.denominator for v in values))
    assert len(weights) == len(values)
    assert all(w * v.denominator == v.numerator * lcm for v, w in zip(values, weights))
    assert Fraction(sum(weights), lcm) == sum(values, Fraction(0))
    positive = [v for v in values if v > 0]
    schema = tables.VariableSchema(
        (tables.Variable("A", tuple(str(i) for i in range(max(len(positive), 1)))),)
    )
    table = tables.Table(schema, {(str(i),): v for i, v in enumerate(positive)})
    assert table.total_mass() == sum(positive, Fraction(0))


def test_common_denominator_bound():
    """The lcm may reach the largest number of ``MAX_LITERAL_DIGITS`` digits,
    not pass it, even when every denominator alone is printable."""
    largest = 10**BOUND - 1  # divisible by 3
    assert tables.common_weights([Fraction(1, largest), Fraction(2, 3)])[0] == largest
    pairs = [
        [Fraction(1, largest), Fraction(1, 2)],
        [Fraction(1, 10**2200 + 1), Fraction(1, 10**2200 + 3)],
    ]
    for values in pairs:
        with pytest.raises(LimitError, match=f"passes {BOUND} digits"):
            tables.common_weights(values)
    schema = tables.VariableSchema(
        (tables.Variable("A", ("0",)), tables.Variable("B", ("0", "1")))
    )
    rows = {("0", "0"): pairs[1][0], ("0", "1"): pairs[1][1]}
    raw = tables.Table(schema, rows, tables.RAW, ("A",), ("B",))
    for call in (raw.total_mass, lambda: tables.uniform_joint_extension(raw)):
        with pytest.raises(LimitError):
            call()


# -- trusted loader and report writer against their twins ---------------------

# A small pool, so literals repeat across rows as they do in real documents:
# ratio and decimal strings, JSON integers and numbers, and zeros.
LITERALS = ["1/2", "1/4", "2/4", "0", "0/3", "0.125", "3", 0, 1, 2, 0.5, "1e-1"]


@st.composite
def table_docs(draw, min_vars=0, min_rows=0, kinds=tables.KINDS, min_domain=1):
    """Valid table documents, rows in any order, zero rows included.

    Domains may hold digit strings that rows spell as JSON integers; the
    loaders read every config value as ``str(value)``.
    """
    names = draw(st.lists(TEXT, min_size=min_vars, max_size=3, unique=True))
    domains = [
        draw(st.lists(st.one_of(TEXT, st.sampled_from("01")), min_size=min_domain,
                      max_size=3, unique=True))
        for _ in names
    ]
    configs = list(product(*domains))
    chosen = draw(st.lists(st.sampled_from(configs), unique=True, min_size=min_rows,
                           max_size=8))
    as_int = draw(st.booleans())
    rows = [
        {"config": [int(v) if as_int and v in ("0", "1") else v for v in config],
         "p": draw(st.sampled_from(LITERALS))}
        for config in chosen
    ]
    doc = {"variables": [{"name": n, "domain": d} for n, d in zip(names, domains)]}
    kind = draw(st.sampled_from(kinds))
    if kind != tables.JOINT or draw(st.booleans()):
        doc["kind"] = kind
    if kind != tables.JOINT:
        givens = [n for n in names if draw(st.booleans())]
        doc["targets"] = draw(st.permutations([n for n in names if n not in givens]))
        doc["givens"] = givens
    doc["rows"] = rows
    return doc


BAD = "\x00not a value"  # outside every drawn domain: TEXT has at most 4 characters


def _fault_row(draw, doc):
    return draw(st.sampled_from(doc["rows"]))


def _arity(draw, doc):
    row = _fault_row(draw, doc)
    shorter = row["config"] and draw(st.booleans())
    row["config"] = row["config"][:-1] if shorter else row["config"] + ["0"]


def _domain(draw, doc):
    row = _fault_row(draw, doc)
    row["config"][draw(st.integers(0, len(row["config"]) - 1))] = BAD


def _duplicate(draw, doc):
    row = _fault_row(draw, doc)  # zero rows included
    doc["rows"].insert(draw(st.integers(0, len(doc["rows"]))),
                       {"config": list(row["config"]), "p": draw(st.sampled_from(LITERALS))})


def _value(bad):
    def fault(draw, doc):
        _fault_row(draw, doc)["p"] = draw(st.sampled_from(bad))
    return fault


def _entry(draw, doc):
    row = _fault_row(draw, doc)
    if draw(st.booleans()):
        del row["p"]
    else:
        row["config"] = "".join(map(str, row["config"]))


def _kind(draw, doc):
    doc["kind"] = draw(st.sampled_from(["bogus", "Joint", 1, None]))


def _joint_fields(draw, doc):
    doc[draw(st.sampled_from(["targets", "givens"]))] = []


def _missing_field(draw, doc):
    del doc[draw(st.sampled_from(["targets", "givens"]))]


def _overlap(draw, doc):
    source = draw(st.sampled_from([f for f in ("targets", "givens") if doc[f]]))
    other = "givens" if source == "targets" else "targets"
    doc[other].append(draw(st.sampled_from(doc[source])))


def _uncovered(draw, doc):
    field = draw(st.sampled_from([f for f in ("targets", "givens") if doc[f]]))
    doc[field].pop(draw(st.integers(0, len(doc[field]) - 1)))


def _field_name(draw, doc):
    doc[draw(st.sampled_from(["targets", "givens"]))].append(
        draw(st.sampled_from([BAD, 1, ["A"], {"x": 1}, None]))
    )


# (name, fault, min_vars, min_rows, kinds): one fault in a valid document.
NON_JOINT = (tables.CONDITIONAL, tables.RAW)
FAULTS = [
    ("arity", _arity, 0, 1, tables.KINDS),
    ("domain", _domain, 1, 1, tables.KINDS),
    ("duplicate", _duplicate, 0, 1, tables.KINDS),
    ("negative", _value(["-1/3", -1, -0.5, "-1e-2"]), 0, 1, tables.KINDS),
    ("literal", _value(["x", "1/0", True, None, [1], {}, "", "1//2"]), 0, 1, tables.KINDS),
    ("row-entry", _entry, 0, 1, tables.KINDS),
    ("kind", _kind, 0, 0, tables.KINDS),
    ("joint-fields", _joint_fields, 0, 0, (tables.JOINT,)),
    ("missing-field", _missing_field, 0, 0, NON_JOINT),
    ("overlap", _overlap, 1, 0, NON_JOINT),
    ("uncovered", _uncovered, 1, 0, NON_JOINT),
    ("field-name", _field_name, 0, 0, NON_JOINT),
]


def _load_outcome(load, text, check):
    try:
        table = load(text, check=check)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return table.schema, table.kind, table.targets, table.givens, list(table.rows.items())


def _same_loads(text, check, format="json"):
    got = _load_outcome(lambda t, check: tables.load_table(t, format, check), text, check)
    assert got == _load_outcome(
        lambda t, check: oracles.naive_load_table(t, format, check), text, check
    )
    return got


@given(table_docs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_loader_matches_naive_on_valid_documents(doc, check):
    got = _same_loads(json.dumps(doc), check)
    if not check:  # the support, in document order
        rows = dict(got[4])
        assert all(type(v) is Fraction and v > 0 for v in rows.values())
        in_order = [tuple(map(str, r["config"])) for r in doc["rows"]]
        assert list(rows) == [c for c in in_order if c in rows]


@pytest.mark.parametrize("name, fault, min_vars, min_rows, kinds", FAULTS,
                         ids=[f[0] for f in FAULTS])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_loader_matches_naive_on_one_fault(name, fault, min_vars, min_rows, kinds, data):
    doc = data.draw(table_docs(min_vars, min_rows, kinds))
    fault(data.draw, doc)
    got = _same_loads(json.dumps(doc), check=False)
    assert isinstance(got[0], type) and issubclass(got[0], WeakindError), got


# Faults of row i of a document with at least three rows, for documents with
# two faults. Each makes a configuration no other row has, except "duplicate".
def _arity_at(draw, rows, i):
    rows[i]["config"] = rows[i]["config"] + [f"{BAD}{i}"]


def _domain_at(draw, rows, i):
    config = rows[i]["config"]
    config[draw(st.integers(0, len(config) - 1))] = f"{BAD}{i}"


def _duplicate_at(draw, rows, i):  # i >= 1
    rows[i]["config"] = list(rows[draw(st.integers(0, i - 1))]["config"])


def _value_at(bad):
    def fault(draw, rows, i):
        rows[i]["p"] = draw(st.sampled_from(bad))
    return fault


def _entry_at(draw, rows, i):
    if draw(st.booleans()):
        del rows[i]["p"]
    else:
        rows[i]["config"] = "".join(map(str, rows[i]["config"]))


ROW_FAULTS = {
    "arity": _arity_at,
    "domain": _domain_at,
    "duplicate": _duplicate_at,
    "negative": _value_at(["-1/3", -1, "-1e-2"]),
    "literal": _value_at(["x", "1/0", True, None, [1], "", "1//2"]),
    "row-entry": _entry_at,
}
# The public ``Table(...)`` checks arity and domains only after every row is
# read, and the loader as it reads each row. The first of two faults is reported
# by both when it is found as its row is read, or when both are arity or domain
# faults.
READ_FAULTS, SHAPE_FAULTS = ("duplicate", "negative", "literal", "row-entry"), ("arity", "domain")
TWO_FAULTS = [(a, b) for a in READ_FAULTS for b in ROW_FAULTS] + [
    (a, b) for a in SHAPE_FAULTS for b in SHAPE_FAULTS]


def _two_faults(data, rows, first, second, faults):
    """Put fault ``first`` in a row before the row of fault ``second``."""
    i = data.draw(st.integers(first == "duplicate", len(rows) - 2))
    faults[first](data.draw, rows, i)
    faults[second](data.draw, rows, data.draw(st.integers(i + 1, len(rows) - 1)))


@pytest.mark.parametrize("first, second", TWO_FAULTS, ids=["-".join(p) for p in TWO_FAULTS])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_loader_matches_naive_on_two_faults(first, second, data):
    doc = data.draw(table_docs(min_vars=1, min_rows=3, min_domain=3))
    _two_faults(data, doc["rows"], first, second, ROW_FAULTS)
    got = _same_loads(json.dumps(doc), check=False)
    assert isinstance(got[0], type) and issubclass(got[0], WeakindError), got


def _csv_records(doc):
    return [[str(v) for v in r["config"]] + [str(r["p"])] for r in doc["rows"]]


def _csv_text(doc, records):
    """Every field quoted: a value holding "\\r" unquoted is a fault of its own."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow([v["name"] for v in doc["variables"]] + ["p"])
    writer.writerows(records)
    return out.getvalue()


def _fields_at(draw, records, i):
    records[i].append("1")


def _csv_duplicate_at(draw, records, i):  # i >= 1
    records[i][:-1] = records[draw(st.integers(0, i - 1))][:-1]


def _csv_value_at(bad):
    def fault(draw, records, i):
        records[i][-1] = draw(st.sampled_from(bad))
    return fault


CSV_FAULTS = {
    "fields": _fields_at,
    "duplicate": _csv_duplicate_at,
    "negative": _csv_value_at(["-1/3", "-1e-2"]),
    "literal": _csv_value_at(["x", "1/0", "", "1//2"]),
}
# The CSV twin checks field counts and literals as it reads each line, then
# repeats; the loader checks every field count first, then each row's repeat
# before its literal. Both report the first of two faults in these orders.
CSV_TWO_FAULTS = [("fields", b) for b in CSV_FAULTS] + [
    ("duplicate", "fields"), ("duplicate", "duplicate")] + [
    (a, b) for a in ("negative", "literal") for b in ("negative", "literal", "duplicate")]


@pytest.mark.parametrize("first, second", CSV_TWO_FAULTS,
                         ids=["-".join(p) for p in CSV_TWO_FAULTS])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_csv_loader_matches_naive_on_two_faults(first, second, data):
    doc = data.draw(table_docs(min_vars=1, min_rows=3, kinds=(tables.JOINT,), min_domain=3))
    records = _csv_records(doc)
    _two_faults(data, records, first, second, CSV_FAULTS)
    got = _same_loads(_csv_text(doc, records), check=False, format="csv")
    assert isinstance(got[0], type) and issubclass(got[0], WeakindError), got


def _two_fault_doc(first, second, p="1/4"):
    """Rows ["0"], ["1"], ["2"]; the first of p, faults in the second and third."""
    edits = {"duplicate": {"config": ["0"]}, "literal": {"p": "x"},
             "domain": {"config": ["9"]}, "arity": {"config": ["1", "0"]}}
    rows = [{"config": [v], "p": "1/4"} for v in "012"]
    rows[0]["p"] = p
    rows[1].update(edits[first])
    rows[2].update(edits[second])
    return {"variables": [{"name": "A", "domain": ["0", "1", "2"]}], "rows": rows}


@pytest.mark.parametrize("doc, error", [
    (_two_fault_doc("duplicate", "literal"), "SchemaError: duplicate configuration: ('0',)"),
    (_two_fault_doc("literal", "domain"), "ParseError: invalid probability literal: 'x'"),
    (_two_fault_doc("duplicate", "arity", p="0"), "SchemaError: duplicate configuration: ('0',)"),
], ids=["duplicate-literal", "literal-domain", "zero-duplicate-arity"])
def test_first_of_two_faults_is_reported(doc, error):
    got = _same_loads(json.dumps(doc), check=False)
    assert f"{got[0].__name__}: {got[1]}" == error


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_column_checks_report_what_the_row_loop_reports(data):
    """Two row faults of any kind, in any order: ``load_table`` reports what its
    row-by-row loop alone reports, on JSON and on CSV documents."""
    doc = data.draw(table_docs(min_vars=1, min_rows=3, min_domain=3))
    first, second = (data.draw(st.sampled_from(sorted(ROW_FAULTS))) for _ in range(2))
    _two_faults(data, doc["rows"], first, second, ROW_FAULTS)
    texts = [(json.dumps(doc), "json")]
    if all(isinstance(r["config"], list) and "p" in r for r in doc["rows"]):
        texts.append((_csv_text(doc, _csv_records(doc)), "csv"))
    for text, format in texts:
        def load(text, check):
            return tables.load_table(text, format, check)
        got = _load_outcome(load, text, False)
        with mock.patch.object(tables, "_column_rows", return_value=None):
            assert _load_outcome(load, text, False) == got


@pytest.mark.parametrize("first, second", [
    (1, True), (0, False), ("1", True), (1, "1"), (0.5, "1/2"), (2, [2]),
], ids=repr)
def test_literal_memo_keeps_types_apart(first, second):
    """Only strings are parsed once per load: a JSON ``true`` after a ``1`` is
    still an invalid literal, not the cached value of ``1``."""
    doc = {"variables": [{"name": "A", "domain": ["0", "1"]}],
           "rows": [{"config": ["0"], "p": first}, {"config": ["1"], "p": second}]}
    _same_loads(json.dumps(doc), check=False)


@given(table_docs(kinds=(tables.JOINT,)), st.sampled_from([None, "duplicate", "negative",
                                                           "literal", "fields"]))
@settings(max_examples=200, deadline=None)
def test_csv_loader_matches_naive(doc, fault):
    rows = [[str(v) for v in r["config"]] + [str(r["p"])] for r in doc["rows"]]
    if fault == "duplicate" and rows:
        rows.append(rows[0][:-1] + ["1/3"])
    elif fault in ("negative", "literal") and rows:
        rows[-1][-1] = "-1/3" if fault == "negative" else "x"
    elif fault == "fields" and rows:
        rows[0].append("1")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([v["name"] for v in doc["variables"]] + ["p"])
    writer.writerows(rows)
    _same_loads(out.getvalue(), check=False, format="csv")


# Report-shaped documents: nested dicts, lists and tuples of text that needs
# escapes, integers of any size and sign, booleans and None.
REPORT_LEAVES = st.one_of(
    TEXT, st.text(), st.integers(), st.integers(-(10**60), 10**60), st.booleans(), st.none()
)
REPORTS = st.recursive(
    REPORT_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(TEXT, st.text(max_size=6)), inner, max_size=4),
    ),
    max_leaves=30,
)
NOT_JSON = st.sampled_from([Fraction(1, 2), {1, 2}, b"x", object(), 1j, frozenset()])


@given(REPORTS)
@settings(max_examples=500, deadline=None)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": [[], ()], "d": [{}]})
def test_write_json_matches_json_dumps(doc):
    assert tables.write_json(doc) == oracles.naive_write_json(doc)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_write_json_rejects_other_types_like_json_dumps(data):
    bad = data.draw(NOT_JSON)
    doc = data.draw(st.recursive(
        st.just(bad),
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3),
            st.dictionaries(TEXT, inner, min_size=1, max_size=3),
        ),
        max_leaves=5,
    ))
    with pytest.raises(TypeError):
        oracles.naive_write_json(doc)
    with pytest.raises(TypeError):
        tables.write_json(doc)
