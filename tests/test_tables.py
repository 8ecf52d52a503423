import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakind import tables
from weakind.errors import LimitError, NormalizationError, ParseError, SchemaError

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
    text = tables.serialize_table(nest_demo, format="csv")
    again = tables.load_table(text, format="csv")
    assert again.rows == nest_demo.rows
    assert again.schema.names == nest_demo.schema.names


def test_csv_rejects_conditional(cwi_cpt):
    with pytest.raises(SchemaError):
        tables.serialize_table(cwi_cpt, format="csv")


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


@given(any_tables())
@settings(max_examples=300, deadline=None)
@example(tables.Table(EMPTY, {}))
@example(tables.Table(EMPTY, {(): Fraction(1)}))
@example(tables.Table(EMPTY, {}, "raw", (), ()))
def test_serialize_matches_json_dumps_twin(table):
    text = tables.serialize_table(table)
    assert text == oracles.naive_serialize_table(table)
    assert table.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert tables.load_table(text, check=False) == table


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
