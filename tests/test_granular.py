import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakind import granular, independence, tables
from weakind.errors import ParseError, SchemaError, WeakindError
from weakind.granular import (
    Attribute,
    EquivalenceReport,
    NestedCell,
    NestedTable,
    canonical_equal,
    load_nested,
    nest,
    nest_commutes,
    serialize_nested,
    unnest,
    wi_nest_equivalence,
)

import util
from oracles import naive_load_nested, naive_nest, naive_nest_commutes


def cell(inner_attrs, mapping):
    return NestedCell(inner_attrs, {tuple(k): Fraction(v) for k, v in mapping.items()})


def test_nest_demo_values(nest_demo):
    nested = nest(nest_demo, "B", ("A2", "A3"))
    assert nested.names == ("A1", "B")
    inner = nested.attributes[1].nested
    assert tuple(a.name for a in inner) == ("A2", "A3")
    rows = {key[0]: (value, key[1]) for key, value in nested.rows.items()}
    assert rows["1"][0] == Fraction(1, 2)
    assert rows["2"][0] == Fraction(1, 4)
    assert rows["3"][0] == Fraction(1, 4)
    assert rows["1"][1] == cell(
        inner, {("1", "2"): "1/4", ("3", "4"): "1/2", ("5", "6"): "1/4"}
    )
    assert rows["2"][1] == cell(inner, {("1", "3"): "1/2", ("2", "4"): "1/2"})
    assert rows["3"][1] == cell(inner, {("0", "0"): "1/2", ("0", "1"): "1/2"})


def test_unnest_restores_nest_demo(nest_demo):
    nested = nest(nest_demo, "B", ("A2", "A3"))
    flat = unnest(nested, "B")
    assert isinstance(flat, tables.Table)
    assert flat.rows == nest_demo.rows
    assert canonical_equal(flat, nest_demo)


def test_nest_everything(nest_demo):
    nested = nest(nest_demo, "B", nest_demo.schema.names)
    assert nested.names == ("B",)
    ((key, value),) = list(nested.rows.items())
    assert value == 1
    assert dict(key[0].rows) == dict(nest_demo.rows)


def test_nest_preserves_mass_and_cells_normalize(nest_demo):
    nested = nest(nest_demo, "B", ("A3",))
    assert nested.total_mass() == nest_demo.total_mass() == 1
    for key in nested.rows:
        assert sum((p for _, p in key[-1].rows), Fraction(0)) == 1


def test_nest_attribute_placement(noncommuting):
    first = nest(noncommuting, "B3", ("A3",))
    assert first.names == ("A1", "A2", "B3")
    second = nest(first, "B1", ("A1",))
    assert second.names == ("B1", "A2", "B3")


def test_noncommuting_double_nest_values(noncommuting):
    one = nest(noncommuting, "B3", ("A3",))
    a3 = one.attributes[2].nested
    outer = {key[0]: (value, key[2]) for key, value in one.rows.items()}
    assert outer["0"][0] == Fraction(2, 5)
    assert outer["0"][1] == cell(a3, {("0",): "1"})
    assert outer["1"][0] == Fraction(3, 5)
    assert outer["1"][1] == cell(a3, {("0",): "2/3", ("1",): "1/3"})

    two = nest(one, "B1", ("A1",))
    a1 = two.attributes[0].nested
    rows = {key[0]: (two.rows[key], key[2]) for key in two.rows}
    assert rows[cell(a1, {("0",): "1"})] == (Fraction(2, 5), cell(a3, {("0",): "1"}))
    assert rows[cell(a1, {("1",): "1"})] == (
        Fraction(3, 5),
        cell(a3, {("0",): "2/3", ("1",): "1/3"}),
    )

    other = nest(nest(noncommuting, "B1", ("A1",)), "B3", ("A3",))
    rows2 = {key[0]: (other.rows[key], key[2]) for key in other.rows}
    assert rows2[cell(a1, {("0",): "1/2", ("1",): "1/2"})] == (
        Fraction(4, 5),
        cell(a3, {("0",): "1"}),
    )
    assert rows2[cell(a1, {("1",): "1"})] == (Fraction(1, 5), cell(a3, {("1",): "1"}))
    assert not canonical_equal(two, other)


def test_canonical_equal_ignores_orders(nest_demo):
    nested = nest(nest_demo, "B", ("A2", "A3"))
    shuffled_rows = dict(reversed(list(nested.rows.items())))
    shuffled = granular.NestedTable(nested.attributes, shuffled_rows)
    assert canonical_equal(nested, shuffled)
    # Reordered attributes with permuted row cells are still equal.
    perm = granular.NestedTable(
        (nested.attributes[1], nested.attributes[0]),
        {(k[1], k[0]): v for k, v in nested.rows.items()},
    )
    assert canonical_equal(nested, perm)


def test_canonical_equal_detects_differences(nest_demo):
    nested = nest(nest_demo, "B", ("A2", "A3"))
    changed = {
        k: (v / 2 if i == 0 else v)
        for i, (k, v) in enumerate(nested.rows.items())
    }
    assert not canonical_equal(nested, granular.NestedTable(nested.attributes, changed))
    # A value outside a plain attribute's domain is rejected outright.
    bad_key = ("9",) + next(iter(nested.rows))[1:]
    with pytest.raises(SchemaError):
        granular.NestedTable(nested.attributes, {bad_key: Fraction(1)})


def test_nest_commutes_on_wi_cpt(wi_cpt):
    joint = tables.uniform_joint_extension(wi_cpt)
    report = nest_commutes(joint, ("X",), ("Z", "W"))
    assert report.equal


def test_nest_commutes_fig9_false(noncommuting):
    report = nest_commutes(noncommuting, ("A1",), ("A3",))
    assert not report.equal


def test_nest_commutes_single_row():
    schema = [("A", "01"), ("B", "01"), ("C", "01")]
    table = make_joint(schema, [(("0", "0", "0"), "1")])
    assert nest_commutes(table, ("A",), ("C",)).equal


def test_nest_commutes_product_case():
    # Full product support with a factorized distribution inside one context.
    rows = [
        (("0", "0", "0"), "1/9"),
        (("0", "0", "1"), "2/9"),
        (("1", "0", "0"), "2/9"),
        (("1", "0", "1"), "4/9"),
    ]
    table = make_joint([("A", "01"), ("B", "0"), ("C", "01")], rows)
    assert nest_commutes(table, ("A",), ("C",)).equal


def make_joint(variables, rows):
    schema = tables.VariableSchema(
        tuple(tables.Variable(n, tuple(d)) for n, d in variables)
    )
    return tables.Table(schema, {tuple(c): Fraction(p) for c, p in rows}, "joint")


def test_unnest_commutes_on_double_nests(noncommuting, nest_demo):
    for table, x, z in (
        (noncommuting, ("A1",), ("A3",)),
        (nest_demo, ("A1",), ("A3",)),
    ):
        double = nest(nest(table, "B2", z), "B1", x)
        one = unnest(unnest(double, "B1"), "B2")
        two = unnest(unnest(double, "B2"), "B1")
        assert canonical_equal(one, two)
        assert canonical_equal(one, table)


def test_round_trip_random_tables():
    rng = random.Random(42)
    for table in util.random_tables(seed=42, count=60):
        names = list(table.schema.names)
        size = rng.randint(1, len(names) - 1)
        rng.shuffle(names)
        chosen = tuple(names[:size])
        back = unnest(nest(table, "B", chosen), "B")
        assert isinstance(back, tables.Table)
        # Identical up to attribute order; realign columns by name.
        assert canonical_equal(back, table)
        perm = [back.schema.names.index(n) for n in table.schema.names]
        realigned = {tuple(cfg[p] for p in perm): v for cfg, v in back.rows.items()}
        assert realigned == dict(table.rows)
        assert back.total_mass() == 1


def test_nest_errors(nest_demo):
    with pytest.raises(SchemaError):
        nest(nest_demo, "B", ())
    with pytest.raises(SchemaError):
        nest(nest_demo, "B", ("NOPE",))
    with pytest.raises(SchemaError):
        nest(nest_demo, "A1", ("A2",))
    with pytest.raises(SchemaError):
        unnest(nest(nest_demo, "B", ("A2",)), "A1")
    with pytest.raises(SchemaError):
        nest_commutes(nest_demo, ("A1",), ("A1", "A2"))


def test_nested_json_round_trip(nest_demo, noncommuting):
    single = nest(nest_demo, "B", ("A2", "A3"))
    double = nest(nest(noncommuting, "B3", ("A3",)), "B1", ("A1",))
    for nested in (single, double):
        text = serialize_nested(nested)
        again = load_nested(text)
        assert canonical_equal(nested, again)
        assert serialize_nested(again) == text


def test_wi_nest_equivalence_reports(wi_cpt, noncommuting):
    report = wi_nest_equivalence(wi_cpt, ("X",), ("Z", "W"), ("Y",))
    assert report.converted
    assert report.wi_holds and report.nests_commute and report.agree
    report9 = wi_nest_equivalence(noncommuting, ("A1",), ("A3",), ("A2",))
    assert not report9.converted
    assert not report9.wi_holds and not report9.nests_commute and report9.agree


def _renamed(table, old, new):
    variables = tuple(
        tables.Variable(new, v.domain) if v.name == old else v for v in table.schema.variables
    )
    return tables.Table(tables.VariableSchema(variables), dict(table.rows), table.kind)


@pytest.mark.parametrize("name", ["B1", "B2"])
def test_wi_nest_equivalence_decides_a_table_using_a_report_name(nest_demo, name):
    """``B1`` and ``B2`` label only the report's tables: the decision reads no
    name, and building those tables is what refuses a table that uses one."""
    table = _renamed(nest_demo, "A2", name)
    report = wi_nest_equivalence(table, ["A1"], ["A3"], [name])
    verdict = independence.check_wi(table, ["A1"], ["A3"], [name])
    assert report.agree and report.wi_holds == verdict.holds
    assert report.verdict.to_json_dict() == verdict.to_json_dict()
    assert report.nests_commute == nest_commutes(nest_demo, ["A1"], ["A3"]).equal
    with pytest.raises(SchemaError, match=f"attribute name '{name}' already in use"):
        report.commutation.first
    # Unknown sets are still refused first, Z before X.
    with pytest.raises(SchemaError, match=r"unknown attributes: \['Q'\]"):
        nest_commutes(table, ["Q"], ["A3"])
    with pytest.raises(SchemaError, match=r"unknown attributes: \['R'\]"):
        nest_commutes(table, ["Q"], ["R"])


def test_canonical_equal_is_false_on_other_attributes(nest_demo):
    nested = nest(nest_demo, "B", ("A2", "A3"))
    assert not canonical_equal(nest_demo, _renamed(nest_demo, "A2", "B2"))  # other names
    plain = make_joint([("A1", "123"), ("B", "01")], [(("1", "0"), "1")])
    assert not canonical_equal(nested, plain)  # B nested in one, plain in the other
    assert not canonical_equal(plain, nested)


def test_wi_nest_equivalence_random_sample():
    for table in util.random_tables(seed=77, count=40, sizes=((3, 2), (3, 3))):
        for x, z, y in util.tripartitions(table.schema.names, dedup=True):
            report = wi_nest_equivalence(table, x, z, y)
            assert report.agree


def test_make_drops_zero_entries():
    doc = {
        "attributes": [
            {"name": "A", "domain": ["0", "1"]},
            {"name": "B", "nested": [{"name": "C", "domain": ["0", "1"]}]},
        ],
        "rows": [
            {"cells": ["0", [{"config": ["0"], "P(Y)": "1"},
                             {"config": ["1"], "P(Y)": "0"}]], "p": "1/2"},
            {"cells": ["1", [{"config": ["0"], "P(Y)": "1/3"},
                             {"config": ["1"], "P(Y)": "2/3"}]], "p": "1/2"},
        ],
    }
    loaded = load_nested(json.dumps(doc))
    c = loaded.attributes[1].nested
    assert next(iter(loaded.rows))[1].rows == ((("0",), Fraction(1)),)
    assert canonical_equal(loaded, nest(unnest(loaded, "B"), "B", ["C"]))
    assert cell(c, {("0",): "1", ("1",): "0"}) == cell(c, {("0",): "1"})


def test_nested_cell_hash_and_equality():
    a, b = tables.Variable("A", ("0", "1")), tables.Variable("B", ("0", "1"))
    made = cell((a, b), {("0", "1"): "1/3", ("1", "0"): "2/3"})
    joint = make_joint(
        [("A", "01"), ("B", "01"), ("C", "01")],
        [(("1", "0", "0"), "1/3"), (("0", "1", "0"), "1/6"), (("1", "1", "1"), "1/2")],
    )
    nested = nest(joint, "N", ("A", "B"))
    by_nest = next(k[0] for k in nested.rows if k[1] == "0")
    loaded = load_nested(serialize_nested(nested))
    by_load = next(k[0] for k in loaded.rows if k[1] == "0")
    for other in (by_nest, by_load):
        assert other == made and hash(other) == hash(made)
    assert made != cell((a, b), {("0", "1"): "1/4", ("1", "0"): "3/4"})
    assert made != NestedCell((b, a), dict(made.rows))
    assert "_hash" not in repr(made) and str(made._hash) not in repr(made)
    assert "_hash" not in serialize_nested(nested)


def test_cell_identity_is_gcd_reduced_weights():
    """Groups weighted 2:4 (over ninths) and 1:2 (over fifths) give one cell."""
    variables = [("A", "01"), ("B", "01")]
    ninths = make_joint(variables, [(("0", "0"), "2/9"), (("0", "1"), "4/9"),
                                    (("1", "0"), "1/3")])
    fifths = make_joint(variables, [(("0", "0"), "1/5"), (("0", "1"), "2/5"),
                                    (("1", "1"), "2/5")])
    cells = [
        next(k[1] for k in nest(t, "N", ("B",)).rows if k[0] == "0")
        for t in (ninths, fifths)
    ]
    assert cells[0] == cells[1] and hash(cells[0]) == hash(cells[1])
    assert cells[0].weights == {("0",): 1, ("1",): 2}
    b = cells[0].attributes
    made = NestedCell(b, {("1",): Fraction(2, 3), ("0",): Fraction(1, 3)})
    assert made == cells[0] and hash(made) == hash(cells[0])
    for c in cells:
        assert c.rows == made.rows == ((("0",), Fraction(1, 3)), (("1",), Fraction(2, 3)))
        assert all(type(v) is Fraction for _, v in c.rows)


def _fractions(rows):
    for key, value in rows:
        yield value
        for part in key:
            if isinstance(part, NestedCell):
                yield from _fractions(part.rows)


def assert_same_nest(got, want):
    assert got.attributes == want.attributes
    assert list(got.rows.items()) == list(want.rows.items())
    # Lookups across the two tables: trusted cells hash like ``make``'s.
    assert all(want.rows[key] == value for key, value in got.rows.items())
    assert all(type(v) is Fraction for v in _fractions(got.rows.items()))
    assert NestedTable(got.attributes, got.rows) == got


@st.composite
def shuffled_joint_tables(draw):
    """Joint tables of 2-4 variables with random support, rows in random order."""
    n = draw(st.integers(min_value=2, max_value=4))
    schema = tables.VariableSchema(tuple(
        tables.Variable(f"V{i}", tuple(str(v) for v in range(draw(st.integers(1, 3)))))
        for i in range(n)
    ))
    configs = list(schema.configs())
    weights = draw(st.lists(
        st.integers(0, 4), min_size=len(configs), max_size=len(configs)
    ))
    weights[0] = weights[0] or 1
    # Rows a_i / b_i, normalized: their reduced denominators differ.
    masses = [Fraction(w, draw(st.sampled_from((1, 2, 3, 5)))) for w in weights]
    rows = [(c, m / sum(masses)) for c, m in zip(configs, masses) if m]
    return tables.Table(schema, dict(draw(st.permutations(rows))), "joint")


@given(shuffled_joint_tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_nest_matches_naive(table, data):
    names = data.draw(st.permutations(table.schema.names))
    i = data.draw(st.integers(1, len(names) - 1))
    j = data.draw(st.integers(i + 1, len(names)))
    x, z = names[:i], names[i:j]
    assert_same_nest(nest(table, "B", x), naive_nest(table, "B", x))
    report = nest_commutes(table, x, z)
    naive = []
    for (b1, s1, b2, s2), out in (
        (("B2", z, "B1", x), report.first),
        (("B1", x, "B2", z), report.second),
    ):
        once = nest(table, b1, s1)
        assert_same_nest(once, naive_nest(table, b1, s1))
        naive.append(naive_nest(naive_nest(table, b1, s1), b2, s2))
        assert_same_nest(out, naive[-1])
        # A loaded document, nested again: its nested cells move into the
        # outer key, then into the inner key.
        loaded = load_nested(serialize_nested(once))
        assert_same_nest(nest(loaded, b2, s2), naive_nest(loaded, b2, s2))
        by = (b1,) + tuple(names[j:])
        assert_same_nest(nest(loaded, "C", by), naive_nest(loaded, "C", by))
    # The integer decision agrees with comparing the Fraction nests.
    assert report.equal == canonical_equal(*naive)


def test_public_constructor_rejects_noncanonical_cells():
    """``NestedCell`` refuses entries that are not a distribution, and
    ``NestedTable`` a cell whose attributes are not its attribute's inner ones,
    or whose inner key is not a tuple: a one-character string would pass the
    arity check, and ``unnest`` could not splice it."""
    a = tables.Variable("A", ("0", "1"))
    other = tables.Variable("C", ("0", "1"))
    outer = Attribute("B", (a,))
    half = Fraction(1, 2)
    for rows in (
        {("0",): Fraction(1, 3)},  # mass 1/3, which unnest would pass on
        {("0",): -half, ("1",): Fraction(3, 2)},  # a negative entry
    ):
        with pytest.raises(SchemaError):
            NestedCell((a,), rows)
    with pytest.raises(SchemaError):  # attributes other than the nested ones
        NestedTable((outer,), {(NestedCell((other,), {("0",): Fraction(1)}),): 1})
    for key in ("0", 0, frozenset({"0"})):
        with pytest.raises(SchemaError, match="nested row key in 'B' must be a tuple"):
            NestedTable((outer,), {(NestedCell((a,), {key: Fraction(1)}),): 1})
    good = NestedCell((a,), {("1",): half, ("0",): half})
    table = NestedTable((outer,), {(good,): Fraction(1)})
    assert good.rows == ((("0",), half), (("1",), half))
    assert unnest(table, "B").total_mass() == 1


@given(util.kinded_tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_commutation_reports_match_eager_twin(table, data):
    """``nest_commutes`` reads the table's cached weights and builds its tables only when
    read; its report, and the equivalence report built on it, print as the
    eager twin's, also on a forced disagreement, which prints both tables."""
    try:
        joint = tables.uniform_joint_extension(table)
    except SchemaError:
        return  # empty support
    names = data.draw(st.permutations(table.schema.names))
    i = data.draw(st.integers(1, len(names) - 1))
    j = data.draw(st.integers(i + 1, len(names)))
    x, z, y = names[:i], names[i:j], names[j:]
    naive = naive_nest_commutes(joint, x, z)
    for _ in range(2):  # cold weights, then warm ones
        report = nest_commutes(joint, x, z)
        assert "first" not in vars(report) and "second" not in vars(report)
        assert report.equal == naive.equal
        assert_same_nest(report.first, naive.first)
        assert_same_nest(report.second, naive.second)
        assert report.to_json_dict() == naive.to_json_dict()

    got = wi_nest_equivalence(table, x, z, y)
    verdict = independence.check_wi(joint, x, z, y)
    twin = EquivalenceReport(verdict.holds, naive.equal, table.kind != "joint", verdict, naive)
    assert got.agree and got.to_json_dict() == twin.to_json_dict()
    assert "first" not in vars(got.commutation)
    flipped = dataclasses.replace(got, wi_holds=not got.wi_holds)
    doc = flipped.to_json_dict()
    assert doc["commutation"]["first"] == naive.first.to_json_dict()
    assert doc == dataclasses.replace(twin, wi_holds=not twin.wi_holds).to_json_dict()


def _commutation(commutes, table, x, z):
    try:
        report = commutes(table, x, z)
        return report.equal, serialize_nested(report.first), serialize_nested(report.second)
    except WeakindError as exc:
        return type(exc), str(exc)


@given(shuffled_joint_tables(), st.data())
@settings(max_examples=400, deadline=None)
def test_nest_commutes_matches_eager_twin_on_nested_and_refused_inputs(table, data):
    """The one-pass decision agrees with the two-nest composition on tables nested
    once, with X or Z naming the nested attribute, on tables that already use the
    name ``B1`` or ``B2``, and on empty, overlapping and unknown sets. Its refusals,
    raised by the decision or by reading the report's tables, are the twin's, in
    the twin's order and words."""
    names = list(table.schema.names)
    renamed = data.draw(st.sampled_from((None, None, "B1", "B2")))
    if renamed is not None:  # the first variable takes a name the nests use
        first, *rest = table.schema.variables
        names[0] = renamed
        schema = tables.VariableSchema((tables.Variable(renamed, first.domain), *rest))
        table = tables.Table(schema, dict(table.rows), "joint")
    inner = data.draw(st.one_of(st.just([]), st.lists(
        st.sampled_from(names), unique=True, min_size=1, max_size=len(names) - 1)))
    if inner:
        b_name = data.draw(st.sampled_from(("N", "N", "B1", "B2")))
        try:
            table = nest(table, b_name, inner)
        except SchemaError:  # the name is in use outside ``inner``
            return
        names = [n for n in names if n not in inner] + [b_name]
    order = data.draw(st.permutations(names))
    i = data.draw(st.integers(1, len(order) - 1))
    j = data.draw(st.integers(i + 1, len(order)))
    x, z = list(order[:i]), list(order[i:j])
    fault = data.draw(st.sampled_from((None, None, None, "empty", "overlap", "B1", "B2", "Q")))
    if fault == "empty":
        data.draw(st.sampled_from((x, z))).clear()
    elif fault == "overlap":
        z += x[:1]
    elif fault is not None:  # a name the table may lack
        data.draw(st.sampled_from((x, z))).append(fault)
    got = _commutation(nest_commutes, table, x, z)
    assert got == _commutation(naive_nest_commutes, table, x, z)


def test_nest_commutes_builds_no_cell_until_read(noncommuting, monkeypatch):
    def refuse(*args):
        raise AssertionError("a nested cell was built")

    with monkeypatch.context() as patched:
        patched.setattr(NestedCell, "_of", refuse)
        patched.setattr(NestedCell, "__init__", refuse)
        report = nest_commutes(noncommuting, ("A1",), ("A3",))
    assert report.equal is False and "first" not in vars(report)
    assert report.to_json_dict() == naive_nest_commutes(noncommuting, ("A1",), ("A3",)).to_json_dict()


@pytest.mark.parametrize("kind, values", [
    ("conditional", ("1/2", "1/2", "1/3", "2/3")),
    ("raw", ("2", "4", "1", "1")),
])
def test_joint_extension_gets_its_own_view(kind, values):
    """The joint extension of a conditional-shaped table caches weights and a
    support of its own: its weights differ from the source's, and its support
    keeps the source's labels."""
    schema = tables.VariableSchema(
        (tables.Variable("A", ("0", "1")), tables.Variable("B", ("0", "1")))
    )
    configs = [("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")]
    source = tables.Table(schema, dict(zip(configs, map(Fraction, values))), kind,
                          ("A",), ("B",))
    source_weights = source.weights
    joint = tables.uniform_joint_extension(source)
    assert not {"weights", "_support"} & vars(joint).keys()
    assert joint.weights != source_weights
    assert source.weights is source_weights
    assert joint.support().rows == source.support().rows
    assert joint.support() is not source.support()
    lcm, weights = joint.weights
    assert {c: Fraction(w, lcm) for c, w in weights.items()} == joint.rows
    assert joint.total_mass() == 1


@pytest.mark.parametrize("first, second, ok", [
    (1, True, False), (0, False, False), ("1", True, False), ("1/2", "1/2", True),
    (0.5, "1/2", True), ("1/2", 0.5, True),
], ids=repr)
def test_nested_literals_keep_types_apart(first, second, ok):
    """``load_nested`` reads each literal by its JSON type: a JSON ``true`` after
    a ``1`` is still an invalid literal, in a row and in a nested cell."""
    attrs = [{"name": "A", "domain": ["0", "1"]}]
    flat = {"attributes": attrs,
            "rows": [{"cells": ["0"], "p": first}, {"cells": ["1"], "p": second}]}
    cell = [{"config": ["0"], "P(Y)": first}, {"config": ["1"], "P(Y)": second}]
    nested = {"attributes": [{"name": "B", "nested": attrs}],
              "rows": [{"cells": [cell], "p": "1"}]}
    for doc in (flat, nested):
        if not ok:
            with pytest.raises(ParseError, match="invalid probability literal"):
                load_nested(json.dumps(doc))
            continue
        table = load_nested(json.dumps(doc))
        flat_rows = (unnest(table, "B") if doc is nested else table).rows
        assert flat_rows == {("0",): Fraction(1, 2), ("1",): Fraction(1, 2)}


BAD = "\x00not a value"


def _cells(doc):
    """(row, position) of every plain cell, and of every nested cell entry."""
    plain, nested = [], []
    for row in doc["rows"]:
        for i, (value, attr) in enumerate(zip(row["cells"], doc["attributes"])):
            (nested if "nested" in attr else plain).append((row["cells"], i))
            if "nested" in attr:
                nested.extend(entry for entry in value)
    return plain, [e for e in nested if isinstance(e, dict)]


def _nested_fault(name, draw, doc):
    """Put fault ``name`` into ``doc``; False if ``doc`` has no place for it."""
    rows = doc["rows"]
    plain, entries = _cells(doc)
    row = draw(st.sampled_from(rows))
    if name == "domain" and plain:
        cells, i = draw(st.sampled_from(plain))
        cells[i] = BAD
    elif name == "inner-domain":
        entry = draw(st.sampled_from(entries))
        entry["config"][draw(st.integers(0, len(entry["config"]) - 1))] = BAD
    elif name == "names" and len(doc["attributes"]) > 1:
        doc["attributes"][-1]["name"] = doc["attributes"][0]["name"]
    elif name == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), json.loads(json.dumps(row)))
    elif name == "literal":
        row["p"] = draw(st.sampled_from(["x", "-1/2", True, "1/0"]))
    elif name == "inner-literal":
        draw(st.sampled_from(entries))["P(Y)"] = draw(st.sampled_from(["x", "-1/2", None]))
    elif name == "cell-sum":
        entry = draw(st.sampled_from(entries))
        entry["P(Y)"] = tables.frac_str(Fraction(entry["P(Y)"]) + Fraction(1, 7))
    elif name == "arity":
        row["cells"].append("0")
    elif name == "inner-arity":
        draw(st.sampled_from(entries))["config"].append("0")
    elif name == "mass":
        row["p"] = tables.frac_str(Fraction(row["p"]) + Fraction(1, 7))
    else:
        return False
    return True


def _zero_row(draw, doc):
    """Move one row's mass to another row, leaving an explicit zero row."""
    row, other = draw(st.permutations(doc["rows"]))[:2]
    other["p"] = tables.frac_str(Fraction(other["p"]) + Fraction(row["p"]))
    row["p"] = "0"


NESTED_FAULTS = ["domain", "inner-domain", "names", "duplicate", "literal", "inner-literal",
                 "cell-sum", "arity", "inner-arity", "mass"]


def _nested_outcome(load, text):
    try:
        table = load(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return table.attributes, list(table.rows.items())


def _nested_doc(table, data):
    """``table`` nested once or twice, and its document."""
    names = data.draw(st.permutations(table.schema.names))
    i = data.draw(st.integers(1, len(names)))
    nested = nest(table, "B", names[:i])
    if i + 1 < len(names) and data.draw(st.booleans()):
        nested = nest(nested, "C", ("B", names[i]))
    return nested, json.loads(serialize_nested(nested))


@pytest.mark.parametrize("name", NESTED_FAULTS + ["zero-row", None], ids=str)
@given(shuffled_joint_tables(), st.data())
@settings(max_examples=25, deadline=None)
def test_nested_loader_matches_naive_on_one_fault(name, table, data):
    """``load_nested`` reads the document and ``NestedTable(...)`` checks it; a
    document with one fault, or none, loads as the naive twin loads it."""
    nested, doc = _nested_doc(table, data)
    faulty = name in NESTED_FAULTS and _nested_fault(name, data.draw, doc)
    if name == "zero-row" and len(doc["rows"]) > 1:
        _zero_row(data.draw, doc)
    text = json.dumps(doc)
    got = _nested_outcome(load_nested, text)
    assert got == _nested_outcome(naive_load_nested, text)
    if faulty:
        assert isinstance(got[0], type) and issubclass(got[0], WeakindError), got
    elif name is None:
        assert canonical_equal(load_nested(text), nested)
    else:
        assert all(p for _, p in got[1])
        assert len(got[1]) == len(doc["rows"]) - (name == "zero-row" and len(doc["rows"]) > 1)


@given(shuffled_joint_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_nested_loader_matches_naive_on_two_faults(table, data):
    """A document with two faults of any kinds, anywhere: ``load_nested``
    reports the one that the naive twin reports."""
    _, doc = _nested_doc(table, data)
    names = data.draw(st.lists(st.sampled_from(NESTED_FAULTS), min_size=2, max_size=2))
    # "mass" and "cell-sum" read a literal, so they go in before a bad one does.
    names.sort(key=lambda name: name not in ("mass", "cell-sum"))
    faulty = [_nested_fault(name, data.draw, doc) for name in names]
    text = json.dumps(doc)
    got = _nested_outcome(load_nested, text)
    assert got == _nested_outcome(naive_load_nested, text)
    if any(faulty):
        assert isinstance(got[0], type) and issubclass(got[0], WeakindError), got
