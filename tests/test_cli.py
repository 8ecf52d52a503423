import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import weakref
from contextlib import redirect_stdout

import pytest
from click.testing import CliRunner

from weakind import granular, tables
from weakind.cli import main
from weakind.errors import ParseError, SchemaError, WeakindError

from oracles import naive_load_nested

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(*args, input=None):
    return CliRunner().invoke(main, list(args), input=input)


def test_check_wi_report():
    result = run(
        "check", "--kind", "wi", "--x", "X", "--z", "Z,W", "--y", "Y",
        str(DATA / "wi_cpt.json"),
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["holds"] is True
    assert doc["version"]
    assert len(doc["table_digest"]) == 64
    assert len(doc["certificate"]["classes"]) == 4
    assert doc["certificate"]["classes"][0]["rows"] == [
        "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8",
    ]


def test_check_assert_exit_code():
    result = run(
        "check", "--kind", "ci", "--x", "X", "--z", "Z,W", "--y", "Y",
        "--assert", str(DATA / "wi_cpt.json"),
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["holds"] is False


def test_check_cwi_context():
    result = run(
        "check", "--kind", "cwi", "--x", "X", "--z", "Z,W",
        "--context", "Y=0", str(DATA / "cwi_cpt.json"),
    )
    doc = json.loads(result.output)
    assert doc["holds"] is True
    assert [c["rows"] for c in doc["certificate"]["classes"]] == [
        ["t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"],
        ["t9", "t10", "t11", "t12"],
    ]


def test_check_pretty_smoke():
    result = run(
        "check", "--kind", "wi", "--x", "X", "--z", "Z,W", "--y", "Y",
        "--pretty", str(DATA / "wi_cpt.json"),
    )
    assert result.exit_code == 0
    assert "holds" in result.output and "class 1" in result.output


def test_validate_reports_violations(tmp_path):
    doc = json.loads((DATA / "csi_cpt.json").read_text())
    doc["kind"] = "conditional"
    bad = tmp_path / "cond.json"
    bad.write_text(json.dumps(doc))
    result = run("validate", str(bad))
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["valid"] is False
    assert len(report["violations"]) == 2
    result = run("validate", "--assert", str(bad))
    assert result.exit_code == 1


def test_validate_clean():
    result = run("validate", str(DATA / "nest_demo.json"))
    assert json.loads(result.output)["valid"] is True


def test_nest_unnest_round_trip_bytes():
    nested = run("nest", "--by", "A2,A3", "--as", "B", str(DATA / "nest_demo.json"))
    assert nested.exit_code == 0
    back = run("unnest", "--attr", "B", "-", input=nested.output)
    assert back.exit_code == 0
    canonical = tables.serialize_table(
        tables.load_table((DATA / "nest_demo.json").read_text())
    )
    assert back.output == canonical


def test_outputs_deterministic():
    args = ("check", "--kind", "cwi", "--x", "X", "--z", "Z,W",
            "--context", "Y=0", str(DATA / "cwi_cpt.json"))
    assert run(*args).output == run(*args).output
    args2 = ("probe", "--trials", "5", "--seed", "0")
    assert run(*args2).output == run(*args2).output


def _run_seeded(seed, args, stdin=None):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
    done = subprocess.run([sys.executable, "-m", "weakind.cli", *args], input=stdin,
                          capture_output=True, text=True, timeout=60, env=env)
    return done.returncode, done.stdout, done.stderr


def test_nest_and_commute_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """``commute`` decides by comparing sets and maps of hashed cells, and ``nest``
    groups rows by them: neither's output may follow the order of a hash, nor
    may that of ``unnest``, of the checks, of ``derive`` or of ``probe``."""
    noncommuting, demo, wi_cpt = (
        str(DATA / name) for name in ("noncommuting.json", "nest_demo.json", "wi_cpt.json")
    )
    premises = tmp_path / "premises.json"
    premises.write_text(json.dumps([
        {"kind": "WI", "X": ["A"], "Y": ["B", "D"], "universe": ["A", "B", "C", "D"]},
        {"kind": "CI", "X": ["B"], "Y": ["A", "D"], "universe": ["A", "B", "C", "D"]},
        {"kind": "WI", "X": ["C"], "Y": ["A"], "Z": ["D"], "universe": ["A", "B", "C", "D"]},
    ]))
    cases = [
        ("commute", "--x", "A1", "--z", "A3", noncommuting),
        ("commute", "--x", "A3", "--z", "A1,A2", noncommuting),
        ("commute", "--x", "A2", "--z", "A3", demo),
        ("commute", "--x", "A1", "--z", "A2,A3", demo),
        ("commute", "--x", "X", "--z", "Z,W", wi_cpt),  # refused: not a joint table
        ("nest", "--by", "A2,A3", "--as", "B", demo),
        ("nest", "--by", "A1", "--as", "B", noncommuting),
        ("nest", "--by", "X", "--as", "B", wi_cpt),
        ("validate", wi_cpt),
        ("check", "--kind", "wi", "--x", "X", "--z", "Z,W", "--y", "Y", wi_cpt),
        ("enumerate", "--kinds", "wi", wi_cpt),
        ("derive", "--premises", str(premises), "--universe", "A,B,C,D"),
        ("probe", "--trials", "2"),
    ]
    outputs = {}
    for seed in (0, 1):
        got = outputs[seed] = [_run_seeded(seed, args) for args in cases]
        once = got[cases.index(("nest", "--by", "A2,A3", "--as", "B", demo))][1]
        got.append(_run_seeded(seed, ("unnest", "--attr", "B", "-"), once))  # flat
        got.append(_run_seeded(seed, ("nest", "--by", "A1,B", "--as", "C", "-"), once))
        got.append(_run_seeded(seed, ("unnest", "--attr", "C", "-"), got[-1][1]))  # nested
    assert outputs[0] == outputs[1]
    assert [code for code, _, _ in outputs[0]] == [0] * 4 + [2, 0, 0, 2] + [0] * 8
    assert '"attributes"' in outputs[0][-1][1] and '"variables"' in outputs[0][-3][1]


def test_check_pretty_prints_a_failing_strong_verdicts_counterexample():
    args = ("check", "--kind", "ci", "--x", "X", "--z", "Z,W", "--y", "Y",
            str(DATA / "wi_cpt.json"))
    result = run(*args, "--pretty")
    assert result.exit_code == 0
    ce = json.loads(run(*args).output)["certificate"]["counterexample"]
    assert result.output == (
        "CI(X ⊥ Z,W | Y) -> fails\n"
        f"  counterexample: x={tuple(ce['x'])} y={tuple(ce['y'])} z={tuple(ce['z'])}"
        f" value={ce['value']} reference={ce['reference']}\n"
    )


def test_unnest_of_a_doubly_nested_document_prints_a_nested_document():
    demo = DATA / "nest_demo.json"
    once = run("nest", "--by", "A2", "--as", "B", str(demo)).output
    twice = run("nest", "--by", "A3", "--as", "C", "-", input=once).output
    result = run("unnest", "--attr", "B", "-", input=twice)
    assert result.exit_code == 0
    table = granular.unnest(granular.load_nested(twice), "B")
    assert isinstance(table, granular.NestedTable) and table.names == ("A1", "A2", "C")
    assert result.output == granular.serialize_nested(table)
    again = run("unnest", "--attr", "C", "-", input=result.output).output
    assert again == tables.serialize_table(tables.load_table(demo.read_text()))


def test_commute_refuses_a_name_its_report_takes(tmp_path):
    """``B2`` labels one of the report's tables, so ``commute`` cannot print it;
    the decision itself reads no name."""
    path = tmp_path / "b2.json"
    path.write_text((DATA / "nest_demo.json").read_text().replace('"A2"', '"B2"'))
    result = run("commute", "--x", "A1", "--z", "A3", str(path))
    assert result.exit_code == 2
    assert result.output == "Error: attribute name 'B2' already in use\n"
    result = run("commute", "--x", "NOPE", "--z", "A3", str(path))
    assert result.output == "Error: unknown attributes: ['NOPE']\n"
    assert run("check", "--kind", "wi", "--x", "A1", "--z", "A3", "--y", "B2",
               str(path)).exit_code == 0


@pytest.mark.parametrize("domain", [["0", "0"], []], ids=["repeated", "empty"])
@pytest.mark.parametrize("inner", [False, True], ids=["top", "inner"])
def test_nested_documents_check_plain_domains_as_tables_do(tmp_path, domain, inner):
    """A plain attribute of a nested document is a ``Variable``: a repeated or
    empty domain is refused at load, at the top level and inside a nested
    attribute, with the table loader's message."""
    plain, nested = ["0", "1"], ["0", "1"]
    if inner:
        nested = domain
    else:
        plain = domain
    doc = {
        "attributes": [{"name": "A", "domain": plain},
                       {"name": "B", "nested": [{"name": "C", "domain": nested}]}],
        "rows": [{"cells": ["0", [{"config": ["0"], "P(Y)": "1"}]], "p": "1"}],
    }
    text = json.dumps(doc)
    with pytest.raises(SchemaError) as want:
        tables.Variable("C" if inner else "A", tuple(domain))
    for load in (granular.load_nested, naive_load_nested):
        with pytest.raises(SchemaError) as got:
            load(text)
        assert str(got.value) == str(want.value)
    path = tmp_path / "nested.json"
    path.write_text(text)
    for args in (["nest", "--by", "A", "--as", "Q"], ["unnest", "--attr", "B"]):
        result = run(*args, str(path))
        assert result.exit_code == 2, args
        assert result.output == f"Error: {want.value}\n", (args, result.output)


def _nesting(name, inner):
    """A nested attribute document over ``inner`` and a cell of it holding one
    row of each inner attribute's first value."""
    attrs, cells = zip(*inner)
    return {"name": name, "nested": list(attrs)}, [{"config": list(cells), "P(Y)": "1"}]


@pytest.mark.parametrize("depth", ["inner", "inner-with-nested-left", "two-levels"])
def test_nested_documents_refuse_a_repeated_inner_name(tmp_path, depth):
    """Names are distinct at every level of a nested table: ``B`` nesting ``C``
    and ``C`` is refused at load, and by the public ``NestedTable(...)``."""
    plain_c = ({"name": "C", "domain": ["0", "1"]}, "0")
    b = _nesting("B", [plain_c, plain_c])
    if depth == "two-levels":
        b = _nesting("B", [_nesting("D", [plain_c, plain_c])])
    attributes = [{"name": "A", "domain": ["0", "1"]}, b[0]]
    cells = ["0", b[1]]
    if depth == "inner-with-nested-left":
        e = _nesting("E", [({"name": "F", "domain": ["0"]}, "0")])
        attributes.append(e[0])
        cells.append(e[1])
    text = json.dumps({"attributes": attributes, "rows": [{"cells": cells, "p": "1"}]})
    for load in (granular.load_nested, naive_load_nested):
        with pytest.raises(SchemaError, match="^duplicate attribute names$"):
            load(text)
    inner = (tables.Variable("C", ("0", "1")),) * 2
    with pytest.raises(SchemaError, match="^duplicate attribute names$"):
        granular.NestedTable((granular.Attribute("B", inner),), {})
    path = tmp_path / "nested.json"
    path.write_text(text)
    for args in (["nest", "--by", "A", "--as", "Q"], ["unnest", "--attr", "B"]):
        result = run(*args, str(path))
        assert result.exit_code == 2, args
        assert result.output == "Error: duplicate attribute names\n", (args, result.output)


def test_enumerate_report():
    result = run("enumerate", "--kinds", "wi", str(DATA / "wi_cpt.json"))
    doc = json.loads(result.output)
    assert doc["truncated"] is False
    holding = [
        v for v in doc["verdicts"]
        if v["holds"] and set(v["statement"]["z"]) == {"Z", "W"}
    ]
    assert holding and all(v["statement"]["kind"] == "WI" for v in holding)


def test_derive_closure(tmp_path):
    premises = [{"kind": "WI", "X": ["A"], "Y": ["B"], "universe": ["A", "B", "C", "D"]}]
    pfile = tmp_path / "premises.json"
    pfile.write_text(json.dumps(premises))
    result = run("derive", "--premises", str(pfile), "--universe", "A,B,C,D")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    displays = {
        (s["kind"], tuple(s["X"]), tuple(s["Y"])) for s in doc["statements"]
    }
    assert ("WI", ("A",), ("B", "C")) in displays  # augmentation conclusion
    assert doc["traces"]


def test_probe_report():
    result = run("probe", "--vars", "3", "--domain-size", "2",
                 "--trials", "10", "--seed", "0")
    doc = json.loads(result.output)
    assert doc["violation_count"] == 0
    assert doc["trials"] == 10


def test_commute_report():
    result = run("commute", "--x", "A1", "--z", "A3", "--assert",
                 str(DATA / "noncommuting.json"))
    assert result.exit_code == 1
    assert json.loads(result.output)["equal"] is False


def test_in_process_run_releases_stdout():
    out = io.StringIO()
    with redirect_stdout(out):
        main.main(["validate", str(DATA / "nest_demo.json")], standalone_mode=False)
    assert json.loads(out.getvalue())["valid"] is True
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("args, option", [
    (("probe", "--vars", "-1"), "--vars"),
    (("probe", "--trials", "-5"), "--trials"),
    (("enumerate", "--kinds", "wi", "--max-statements", "-1"), "--max-statements"),
    (("enumerate", "--kinds", "wi", "--max-context", "-1"), "--max-context"),
])
def test_negative_counts_exit_2(args, option):
    """A negative count is refused before any work, with one error line."""
    result = run(*args, str(DATA / "wi_cpt.json")) if args[0] == "enumerate" else run(*args)
    assert result.exit_code == 2
    assert result.output.count("\n") == 1 and result.output.startswith("Error:")
    assert option in result.output and "x>=0" in result.output


def test_probe_domain_size_below_1_exits_2():
    result = run("probe", "--trials", "0", "--domain-size", "-5")
    assert (result.exit_code, result.output) == (2, "Error: domain size -5 is below 1\n")


@pytest.mark.parametrize("args, message", [
    (("check", "--kind", "nope", "--x", "X", "--z", "Z"), "Invalid value for '--kind'"),
    (("probe", "--trials", "x"), "Invalid value for '--trials'"),
    (("check", "--kind", "ci", "--x", "X"), "Missing option '--z'"),
    (("check", "--kind", "cwi", "--x", "X", "--z", "Z,W", "--context", "Y0",
      str(DATA / "cwi_cpt.json")), "malformed context assignment 'Y0'"),
    (("nope",), "No such command 'nope'"),
    (("--nope",), "No such option '--nope'"),
    (("check", "--kind", "csi", "--x", "X", "--z", "Z,W", "--context", "Y=0,Y=1",
      str(DATA / "wi_cpt.json")), "context variable 'Y' is assigned twice"),
    (("check", "--kind", "pci", "--x", "X", "--z", "Z,W", "--context", "Y=0,Y=1",
      str(DATA / "wi_cpt.json")), "context variable 'Y' is assigned twice"),
    (("check", "--kind", "cwi", "--x", "X", "--z", "Z,W", "--context", "Y=0,Y=1",
      str(DATA / "wi_cpt.json")), "context variable 'Y' is assigned twice"),
])
def test_click_usage_errors_are_one_line(args, message):
    """A usage error click finds (a bad choice, a non-integer, a missing
    option or verb), or a malformed or repeated ``--context`` assignment,
    prints one ``Error:`` line, like every other error."""
    result = run(*args)
    assert result.exit_code == 2
    assert result.output.startswith(f"Error: {message}")
    assert result.output.count("\n") == 1, result.output


@pytest.mark.parametrize("kind, option, value", [
    ("ci", "--context", "Y=0"),
    ("wi", "--context", "Q=0"),
    ("pci", "--y", "Q"),
    ("cwi", "--y", "Y"),
])
def test_check_refuses_options_its_kind_does_not_read(kind, option, value):
    """An option the kind would drop is refused before the table is read;
    an empty one is still accepted."""
    args = ["check", "--kind", kind, "--x", "X", "--z", "Z,W"]
    args += ["--y", "Y"] if kind in ("ci", "wi") else ["--context", "Y=0"]
    result = run(*args, option, value, "missing-file.json")
    assert (result.exit_code, result.output) == (2, f"Error: --kind {kind} takes no {option}\n")
    empty = run(*args, option, "", str(DATA / "wi_cpt.json"))
    assert empty.exit_code == 0
    assert empty.output == run(*args, str(DATA / "wi_cpt.json")).output


def test_help_is_still_clicks():
    """``--help``, and a bare ``weakind``, print click's full help."""
    for args in (("--help",), ()):
        assert "Usage:" in run(*args).output and "Commands:" in run(*args).output
    assert run("check", "--help").output.startswith("Usage: main check [OPTIONS] [INPUT]")


def test_usage_errors_exit_2(tmp_path):
    assert run("check", "--kind", "wi", "--x", "X", "--z", "X,W", "--y", "Y",
               str(DATA / "wi_cpt.json")).exit_code == 2
    assert run("validate", "missing-file.json").exit_code == 2
    assert run("nest", "--by", "NOPE", "--as", "B",
               str(DATA / "nest_demo.json")).exit_code == 2
    assert run("probe", "--rules", "WI9").exit_code == 2
    assert run("probe", "--vars", "9", "--trials", "1").exit_code == 2
    assert run("probe", "--vars", "2", "--domain-size", "65", "--trials", "1").exit_code == 2
    past_work = run("probe", "--vars", "6", "--domain-size", "4", "--trials", "1")
    assert past_work.exit_code == 2 and "bound 2000000 on probe work" in past_work.output
    assert len(past_work.output.splitlines()) == 1

    # Malformed field types in a table document, strings included: a string
    # is not read as a list of characters.
    table = json.loads((DATA / "csi_cpt.json").read_text())
    for field, value in (
        ("targets", 5), ("rows", 5), ("targets", "X"), ("targets", "AB"),
    ):
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps({**table, field: value}))
        assert run("validate", str(bad)).exit_code == 2, (field, value)
    table["variables"][0]["domain"] = "01"
    bad.write_text(json.dumps(table))
    assert run("validate", str(bad)).exit_code == 2

    # ... and in a derive premise file.
    premise = {"kind": "WI", "X": ["A"], "Y": ["B"], "universe": ["A", "B", "C"]}
    for field, value in (("X", 5), ("universe", "ABC"), ("Z", "C")):
        bad = tmp_path / "premises.json"
        bad.write_text(json.dumps([{**premise, field: value}]))
        result = run("derive", "--premises", str(bad), "--universe", "A,B,C")
        assert result.exit_code == 2, (field, value)
    bad.write_text(json.dumps(premise))
    assert run("derive", "--premises", str(bad), "--universe", "A,B,C").exit_code == 2
    # A number in a premise is refused by its field, not read as a probability.
    for field, number in (("kind", "1.5"), ("Z", "1e99999"), ("kind", "7")):
        bad.write_text(json.dumps([{**premise, field: "@"}]).replace('"@"', number))
        result = run("derive", "--premises", str(bad), "--universe", "A,B,C")
        assert result.exit_code == 2, (field, number)
        assert result.output.count("\n") == 1 and f"'{field}'" in result.output
        assert "Fraction" not in result.output and "probability" not in result.output

    # ... and in a nested document, whose total mass must also be 1.
    attrs = [{"name": "B", "nested": [{"name": "A", "domain": ["0", "1"]}]}]
    for doc in (
        {"attributes": 5, "rows": []},
        {"attributes": [{"name": "B", "nested": [{"name": "A", "domain": "01"}]}],
         "rows": [{"cells": [[{"config": ["0"], "P(Y)": "1"}]], "p": "1"}]},
        {"attributes": attrs, "rows": []},
        # A cell that lists one config twice.
        {"attributes": attrs,
         "rows": [{"cells": [[{"config": ["0"], "P(Y)": "1"}] * 2], "p": "1"}]},
    ):
        bad = tmp_path / "nested.json"
        bad.write_text(json.dumps(doc))
        result = run("unnest", "--attr", "B", str(bad))
        assert result.exit_code == 2, doc
        assert result.output.count("\n") == 1, result.output
    # Duplicate top-level rows, which describe mass 3/2.
    bad.write_text(json.dumps({
        "attributes": [{"name": "A", "domain": ["0", "1"]}],
        "rows": [{"cells": ["0"], "p": "1/2"}, {"cells": ["0"], "p": "1/2"},
                 {"cells": ["1"], "p": "1/2"}],
    }))
    result = run("nest", "--by", "A", "--as", "Q", str(bad))
    assert result.exit_code == 2
    assert result.output.count("\n") == 1, result.output


def test_non_string_targets_and_givens_exit_2(tmp_path):
    """A ``targets`` or ``givens`` entry that is not a name is a one-line
    ``ParseError``, not a ``TypeError`` from ordering or sorting the names."""
    table = json.loads((DATA / "csi_cpt.json").read_text())
    for field, value in (("targets", [["X"]]), ("givens", [{"x": 1}]), ("targets", [1, "X"])):
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps({**table, field: value}))
        for args in (["validate"], ["check", "--kind", "ci", "--x", "X", "--z", "Z"]):
            result = run(*args, str(bad))
            assert result.exit_code == 2, (field, value, result.output[-200:])
            assert result.output.count("\n") == 1, result.output
            assert "must be lists of variable names" in result.output


def test_oversized_common_denominator_exits_2(tmp_path):
    """Two masses whose denominators print but whose lcm passes Python's
    4,300-digit cap: the total mass, and so the table, is an input error."""
    a, b = 10**2200 + 1, 10**2200 + 3
    joint = {
        "variables": [{"name": "A", "domain": ["0", "1"]}],
        "rows": [{"config": ["0"], "p": f"1/{a}"}, {"config": ["1"], "p": f"1/{b}"}],
    }
    raw = {
        "variables": [{"name": "A", "domain": ["0"]}, {"name": "B", "domain": ["0", "1"]}],
        "kind": "raw", "targets": ["A"], "givens": ["B"],
        "rows": [{"config": ["0", "0"], "p": f"1/{a}"},
                 {"config": ["0", "1"], "p": f"1/{b}"}],
    }
    for doc, args in (
        (joint, ["validate"]),
        (joint, ["check", "--kind", "wi", "--x", "A", "--z", "A"]),
        (raw, ["check", "--kind", "wi", "--x", "A", "--z", "B"]),
    ):
        path = tmp_path / "lcm.json"
        path.write_text(json.dumps(doc))
        result = run(*args, str(path))
        assert result.exit_code == 2, (args, result.output[-200:])
        assert result.output.count("\n") == 1, result.output[-200:]
        assert "passes 4300 digits" in result.output


def test_unprintable_sums_exit_2(tmp_path):
    """Two masses of 4,300 nines each print, but their sum does not: the joint
    check, a flat nested document's total and a nested cell's sum fail with
    one line."""
    big = "9" * tables.MAX_LITERAL_DIGITS
    joint = {
        "variables": [{"name": "A", "domain": ["0", "1"]}],
        "rows": [{"config": ["0"], "p": big}, {"config": ["1"], "p": big}],
    }
    flat = {
        "attributes": [{"name": "A", "domain": ["0", "1"]}],
        "rows": [{"cells": ["0"], "p": big}, {"cells": ["1"], "p": big}],
    }
    cell = {
        "attributes": [{"name": "B", "nested": [{"name": "A", "domain": ["0", "1"]}]}],
        "rows": [{"cells": [[{"config": ["0"], "P(Y)": big},
                             {"config": ["1"], "P(Y)": big}]], "p": "1"}],
    }
    for doc, args in (
        (joint, ["validate"]),
        (joint, ["check", "--kind", "wi", "--x", "A", "--z", "A"]),
        (flat, ["unnest", "--attr", "B"]),
        (cell, ["unnest", "--attr", "B"]),
    ):
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(doc))
        result = run(*args, str(path))
        assert result.exit_code == 2, (args, result.output[-200:])
        assert result.output.count("\n") == 1, result.output[-200:]
        assert "passes 4300 digits" in result.output


def test_enumerate_bounds_variables(tmp_path):
    """Past ``MAX_UNIVERSE`` variables, enumeration stops before any role vector."""
    for n, code in ((9, 2), (8, 0)):
        doc = {
            "variables": [{"name": f"V{i}", "domain": ["0"]} for i in range(n)],
            "rows": [{"config": ["0"] * n, "p": "1"}],
        }
        path = tmp_path / f"vars{n}.json"
        path.write_text(json.dumps(doc))
        result = run("enumerate", "--kinds", "ci,wi", "--max-statements", "1", str(path))
        assert result.exit_code == code, result.output[-200:]
        if code:
            assert result.output.count("\n") == 1, result.output
            assert "exceeds bound 8" in result.output
        else:
            assert json.loads(result.output)["count"] == 1


def test_oversized_literals_exit_2(tmp_path):
    """The smallest literals whose numerator or denominator passes Python's
    4,300-digit cap fail with one line, as a JSON number, a JSON string, a
    CSV field and a nested document's number, decimal or integer."""
    digits = tables.MAX_LITERAL_DIGITS
    tiny, long_int = f"1e-{digits}", "1" * (digits + 1)
    variables = '"variables": [{"name": "A", "domain": ["0", "1"]}]'
    cases = [(f'{{{variables}, "rows": [{{"config": ["0"], "p": {p}}}]}}', "validate")
             for p in (tiny, long_int, f'"{tiny}"', f'"{long_int}"')]
    cases.append((f"A,p\n0,{tiny}\n1,1\n", "csv"))
    cases += [(
        '{"attributes": [{"name": "A", "domain": ["0", "1"]}],'
        f' "rows": [{{"cells": ["0"], "p": {p}}}, {{"cells": ["1"], "p": "1"}}]}}',
        "nest",
    ) for p in (tiny, long_int)]
    for text, verb in cases:
        bad = tmp_path / "big.txt"
        bad.write_text(text)
        if verb == "csv":
            result = run("validate", "--format", "csv", str(bad))
        elif verb == "nest":
            result = run("nest", "--by", "A", "--as", "B", str(bad))
        else:
            result = run("validate", str(bad))
        assert result.exit_code == 2, (text[-60:], result.output)
        assert result.output.count("\n") == 1, result.output


def test_nest_verbs_load_documents_like_the_library(tmp_path):
    """``nest`` and ``unnest`` parse a document once and hand it to the loader
    of its kind. A fault exits 2 with that loader's one-line message, and a
    valid document nests and unnests as the library does."""
    demo = (DATA / "nest_demo.json").read_text()
    nested = granular.serialize_nested(
        granular.nest(tables.load_table(demo), "B", ("A2", "A3"))
    )
    long_int = "1" * (tables.MAX_LITERAL_DIGITS + 1)
    faults = [
        ('{"attributes": [', tables.load_table),  # malformed JSON
        ("[1, 2]", tables.load_table),  # not an object
        (demo.replace("0.125", long_int, 1), tables.load_table),  # oversized literal
        (demo.replace("0.125", "0.5", 1), tables.load_table),  # sums to 11/8
        (nested.replace('"p": "1/2"', f'"p": {long_int}', 1), granular.load_nested),
        (nested.replace('"P(Y)": "1/2"', '"P(Y)": true', 1), granular.load_nested),
        (nested.replace('"p": "1/2"', '"p": "1/4"', 1), granular.load_nested),
    ]
    path = tmp_path / "doc.json"
    for text, loader in faults:
        with pytest.raises(WeakindError) as fault:
            loader(text)
        path.write_text(text)
        for args in (["nest", "--by", "A1", "--as", "Q"], ["unnest", "--attr", "B"]):
            result = run(*args, str(path))
            assert result.exit_code == 2, (args, text[-80:])
            assert result.output == f"Error: {fault.value}\n", (args, result.output)

    path.write_text(nested)
    table = granular.load_nested(nested)
    result = run("nest", "--by", "A1", "--as", "Q", str(path))
    assert result.exit_code == 0
    assert result.output == granular.serialize_nested(granular.nest(table, "Q", ("A1",)))
    result = run("unnest", "--attr", "B", str(path))
    assert result.exit_code == 0
    assert result.output == tables.serialize_table(granular.unnest(table, "B"))
    path.write_text(demo)
    assert run("unnest", "--attr", "B", str(path)).output == (
        "Error: input has no nested attributes\n"
    )


def test_non_utf8_input_exits_2(tmp_path):
    """Bytes that are not UTF-8 are a ``ParseError``: exit 2 with one line from
    every verb that reads a file, and the same error from the library."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    for args in (["check", "--kind", "wi", "--x", "A", "--z", "B"], ["validate"],
                 ["validate", "--format", "csv"], ["nest", "--by", "A", "--as", "Q"],
                 ["derive", "--universe", "A,B", "--premises"]):
        for path, stdin in ((str(bad), None), ("-", bad.read_bytes())):
            result = run(*args, path, input=stdin)
            assert result.exit_code == 2, (args, path, result.output)
            assert result.output.startswith("Error: input is not UTF-8: "), result.output
            assert result.output.count("\n") == 1, result.output
    with open(bad, encoding="utf-8") as handle:
        sources = [b"\xff", io.BytesIO(b"\xff\xfe{}"), handle]
        for source in sources:
            with pytest.raises(ParseError, match="^input is not UTF-8: "):
                tables.load_table(source)
    with pytest.raises(ParseError, match="^input is not UTF-8: "):
        granular.load_nested(b'{"attributes": [], "rows": [], "x": "\xe9"}')


def test_csv_reader_errors_exit_2(tmp_path):
    """A CSV field past the csv module's size limit is a ``ParseError``."""
    path = tmp_path / "big.csv"
    path.write_text("A,p\n" + "x" * 200_000 + ",1\n")
    result = run("validate", "--format", "csv", str(path))
    assert result.exit_code == 2, result.output[-200:]
    assert result.output.startswith("Error: malformed CSV document: field larger")
    assert result.output.count("\n") == 1
