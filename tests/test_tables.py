import json
from fractions import Fraction

import pytest

from weakind import tables
from weakind.errors import NormalizationError, ParseError, SchemaError

import oracles
from conftest import load_fixture


def test_json_decimals_parse_exactly(nest_demo):
    assert nest_demo.value(("1", "1", "2")) == Fraction(1, 8)
    assert nest_demo.value(("1", "3", "4")) == Fraction(1, 4)
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
    p1 = cwi_cpt.value(("0", "0", "0", "0"))
    p3 = cwi_cpt.value(("2", "0", "2", "2"))
    p4 = cwi_cpt.value(("2", "0", "3", "2"))
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
        g = wi_cpt.schema.project(cfg, wi_cpt.givens)
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
    with pytest.raises(SchemaError):
        tables.load_table(json.dumps(doc))


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
        "csi_cpt.json",
        "cwi_cpt.json",
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
