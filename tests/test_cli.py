import json
import pathlib

from click.testing import CliRunner

from weakind import tables
from weakind.cli import main

DATA = pathlib.Path(__file__).parent / "data"


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


def test_usage_errors_exit_2(tmp_path):
    assert run("check", "--kind", "nope", "--x", "X", "--z", "Z").exit_code == 2
    assert run("check", "--kind", "wi", "--x", "X", "--z", "X,W", "--y", "Y",
               str(DATA / "wi_cpt.json")).exit_code == 2
    assert run("validate", "missing-file.json").exit_code == 2
    assert run("check", "--kind", "cwi", "--x", "X", "--z", "Z,W",
               "--context", "Y0", str(DATA / "cwi_cpt.json")).exit_code == 2
    assert run("nest", "--by", "NOPE", "--as", "B",
               str(DATA / "nest_demo.json")).exit_code == 2
    assert run("probe", "--rules", "WI9").exit_code == 2

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
