import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakind import independence, partitions, tables
from weakind.errors import LimitError, SchemaError, StatementError
from weakind.independence import (
    Limits,
    check_ci,
    check_csi,
    check_cwi,
    check_pci,
    check_wi,
    enumerate_statements,
    replay,
)

import oracles
import util
from util import make_table


# ---------------------------------------------------------------------------
# strong family
# ---------------------------------------------------------------------------


def test_ci_fails_on_csi_cpt(csi_cpt):
    verdict = check_ci(csi_cpt, ("X",), ("Z", "W"), ("Y",))
    assert not verdict.holds
    ce = verdict.certificate.counterexample
    assert ce.x == ("1",) and ce.y == ("1",)
    assert {ce.value, ce.reference} == {Fraction(2, 5), Fraction(3, 5)}


def test_ci_trivial_singleton_target():
    table = make_table(
        [("A", ["0"]), ("B", ["0", "1"]), ("C", ["0", "1"])],
        [(("0", "0", "0"), "1/4"), (("0", "0", "1"), "1/4"),
         (("0", "1", "0"), "1/4"), (("0", "1", "1"), "1/4")],
    )
    assert check_ci(table, ("A",), ("B",), ("C",)).holds


def test_ci_uniform_table_everywhere():
    rows = [((a, b, c), "1/8") for a in "01" for b in "01" for c in "01"]
    table = make_table([("A", "01"), ("B", "01"), ("C", "01")], rows)
    for x, z, y in util.tripartitions(("A", "B", "C")):
        verdict = check_ci(table, x, z, y)
        assert verdict.holds
        assert oracles.ci_oracle(table, x, z, y)


def test_csi_context_split(csi_cpt):
    holds0 = check_csi(csi_cpt, ("X",), ("Z", "W"), (), {"Y": "0"})
    holds1 = check_csi(csi_cpt, ("X",), ("Z", "W"), (), {"Y": "1"})
    assert holds0.holds
    assert not holds1.holds
    ce = holds1.certificate.counterexample
    assert {ce.value, ce.reference} == {Fraction(2, 5), Fraction(3, 5)}


def test_csi_vacuous_context():
    # Domain value "2" for C never occurs with positive probability.
    table = make_table(
        [("A", "01"), ("B", "01"), ("C", "012")],
        [(("0", "0", "0"), "1/2"), (("1", "1", "1"), "1/2")],
    )
    verdict = check_csi(table, ("A",), ("B",), (), {"C": "2"})
    assert verdict.holds
    assert not verdict.certificate.context_in_support


def test_pci_counterexamples_on_cwi_cpt(cwi_cpt):
    v0 = check_pci(cwi_cpt, ("X",), ("Z", "W"), {"Y": "0"})
    assert not v0.holds
    ce0 = v0.certificate.counterexample
    assert {ce0.value, ce0.reference} == {Fraction(0), Fraction(2, 5)}
    v1 = check_pci(cwi_cpt, ("X",), ("Z", "W"), {"Y": "1"})
    assert not v1.holds
    ce1 = v1.certificate.counterexample
    assert {ce1.value, ce1.reference} == {Fraction(0), Fraction(1)}


def test_pci_trivial_singleton_z():
    table = make_table(
        [("A", "01"), ("B", "0"), ("C", "01")],
        [(("0", "0", "0"), "1/2"), (("1", "0", "1"), "1/2")],
    )
    assert check_pci(table, ("A",), ("B",), {"C": "0"}).holds


def _one_row(kind, n, size, row):
    """A conditional-shaped table over X, G0..G(n-2) of domain ``size`` with one
    row: target X, all the G given."""
    names = ["X"] + [f"G{i}" for i in range(n - 1)]
    domain = [str(d) for d in range(size)]
    return make_table([(v, domain) for v in names], [(row, "1")], kind,
                      ("X",), tuple(names[1:]))


@pytest.mark.parametrize("kind", ["conditional", "raw"])
def test_one_row_counts_from_domain_sizes(kind):
    """X ⊥ G0..G6 on one row of a table over 8 variables of domain 6. A strict
    table has 1,679,610 = 6 · (6^7 - 1) vacuous cells, counted without visiting
    them; a raw one as many comparisons, and fails at the first absent cell."""
    table = _one_row(kind, 8, 6, ("0",) * 8)
    verdict = check_ci(table, ("X",), [f"G{i}" for i in range(7)])
    if kind == "conditional":
        expected = independence.StrongCertificate(0, 1_679_610, True, None)
    else:
        first_absent = independence.Counterexample(
            ("0",), (), ("0",) * 6 + ("1",), Fraction(0), ("0",) * 7, Fraction(1))
        expected = independence.StrongCertificate(1_679_610, 0, True, first_absent)
    assert verdict.certificate == expected


@pytest.mark.parametrize("kind", ["conditional", "raw"])
@pytest.mark.parametrize("y", [(), ("G0", "G1")])
def test_one_row_certificates_match_twin(kind, y):
    """One row of a table over 5 variables of domain 4: a strict table's
    cells are all vacuous but one per x, a raw one compares every declared z,
    absent cells reading as zero, and fails at the row."""
    table = _one_row(kind, 5, 4, ("1", "2", "3", "0", "1"))
    z = [v for v in ("G0", "G1", "G2", "G3") if v not in y]
    verdict = check_ci(table, ("X",), z, y)
    _, twin = oracles.naive_strong_check(table, ("X",), z, y, {})
    assert verdict.certificate == twin
    cert = verdict.certificate
    if kind == "conditional":
        assert verdict.holds and (cert.comparisons, cert.vacuous) == (0, 1020)
        return
    ce, given = cert.counterexample, ("2", "3", "0", "1")  # the row's G values
    assert (cert.comparisons, cert.vacuous) == (960 if y else 1020, 0)
    assert (ce.x, ce.y, ce.z) == (("1",), given[:len(y)], given[len(y):])
    assert (ce.value, ce.reference) == (1, 0)


_HOSTILE = {
    # One supported (y, z) of 8,000,000 declared; each x compared there.
    "wide_z": independence.StrongCertificate(2, 7_999_999, True, None),
    "wider_z": independence.StrongCertificate(2, 999_999_999, True, None),
    # The 1,000,000 x-values are compared at the row's z; the other z is vacuous.
    "wide_x": independence.StrongCertificate(1_000_000, 1, True, None),
    # 6 · (6^7 - 1) comparisons; the first z holding the row's x differs from
    # the zero baseline at the first declared z.
    "raw": independence.StrongCertificate(1_679_610, 0, True, independence.Counterexample(
        ("5",), (), ("5",) * 7, Fraction(1), ("0",) * 7, Fraction(0))),
}


@pytest.mark.parametrize("name", sorted(_HOSTILE))
def test_hostile_one_row_certificates(name):
    """A declared product of millions of cells around one row is counted, not
    walked: each check returns its pinned certificate well inside a second
    (the declared-product walk took 0.5-1.4 s on a 2-CPU host)."""
    table, x, z = util.hostile_tables()[name]
    start = time.perf_counter()
    verdict = check_ci(table, x, z)
    assert time.perf_counter() - start < 0.1
    assert verdict.certificate == _HOSTILE[name]
    assert verdict.holds == (name != "raw")


# ---------------------------------------------------------------------------
# weak family
# ---------------------------------------------------------------------------


def test_cwi_context_zero(cwi_cpt):
    verdict = check_cwi(cwi_cpt, ("X",), ("Z", "W"), {"Y": "0"})
    assert verdict.holds
    cert = verdict.certificate
    assert cert.commutes
    assert [c.labels for c in cert.classes] == [
        ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"),
        ("t9", "t10", "t11", "t12"),
    ]
    pi1, pi2 = cert.classes
    assert pi1.satisfied and not pi1.vacuous
    assert pi1.x_values == (("0",), ("1",))
    assert pi1.z_values == (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
    assert not pi2.satisfied
    assert pi2.x_values == (("2",),)
    ce = pi2.counterexample
    assert {ce.value, ce.reference} == {Fraction(3, 5), Fraction(7, 10)}


def test_cwi_context_one_fails(cwi_cpt):
    verdict = check_cwi(cwi_cpt, ("X",), ("Z", "W"), {"Y": "1"})
    assert not verdict.holds
    # All classes are constraint-free singletons, so none witnesses.
    assert all(c.vacuous for c in verdict.certificate.classes)


def test_cwi_single_row_context_holds():
    table = make_table(
        [("X", "01"), ("Y", "01"), ("Z", "01")],
        [
            (("0", "0", "0"), "1/2"),
            (("1", "0", "1"), "1/2"),
            (("0", "1", "0"), "1"),
        ],
        kind="raw",
        targets=("X",),
        givens=("Y", "Z"),
    )
    verdict = check_cwi(table, ("X",), ("Z",), {"Y": "1"})
    assert verdict.holds
    assert len(verdict.certificate.classes) == 1
    assert verdict.certificate.classes[0].vacuous


def test_cwi_empty_context_support_is_vacuous():
    table = make_table(
        [("X", "01"), ("Y", "012"), ("Z", "01")],
        [(("0", "0", "0"), "1/2"), (("1", "1", "1"), "1/2")],
    )
    verdict = check_cwi(table, ("X",), ("Z",), {"Y": "2"})
    assert verdict.holds
    assert verdict.certificate.vacuous


def test_wi_holds_on_wi_cpt(wi_cpt):
    verdict = check_wi(wi_cpt, ("X",), ("Z", "W"), ("Y",))
    assert verdict.holds
    labels = [c.labels for c in verdict.certificate.classes]
    assert labels == [
        tuple(f"t{i}" for i in range(1, 9)),
        tuple(f"t{i}" for i in range(9, 17)),
        tuple(f"t{i}" for i in range(17, 25)),
        tuple(f"t{i}" for i in range(25, 33)),
    ]
    assert all(c.satisfied for c in verdict.certificate.classes)
    assert all(len(c.y_values) == 1 for c in verdict.certificate.classes)


def test_ci_fails_on_wi_cpt(wi_cpt):
    assert not check_ci(wi_cpt, ("X",), ("Z", "W"), ("Y",)).holds


def test_wi_fails_on_noncommuting(noncommuting):
    verdict = check_wi(noncommuting, ("A1",), ("A3",), ("A2",))
    assert not verdict.holds
    assert not verdict.certificate.commutes
    assert verdict.certificate.witness is not None
    assert not oracles.wi_oracle(noncommuting, ("A1",), ("A3",), ("A2",))


def test_wi_requires_full_cover(wi_cpt):
    with pytest.raises(StatementError):
        check_wi(wi_cpt, ("X",), ("Z",), ("Y",))


def test_disjointness_enforced(wi_cpt):
    with pytest.raises(StatementError):
        check_ci(wi_cpt, ("X",), ("X", "W"), ("Y",))
    with pytest.raises(StatementError):
        check_wi(wi_cpt, (), ("Z", "W"), ("Y",))


def test_raw_alignment_enforced(wi_cpt):
    # X must be the stored target-set for conditional-shaped tables.
    with pytest.raises(StatementError):
        check_wi(wi_cpt, ("Y",), ("Z", "W"), ("X",))


UNKNOWN_Q = "SchemaError: unknown variables: ['Q']"
NONEMPTY = "StatementError: X and Z must be nonempty"
DISJOINT = "StatementError: variable sets must be pairwise disjoint"
COVER = "StatementError: weak statements must cover the full variable set"
TARGETS = "StatementError: X must equal the table's target-set"

# (kind, X, Z, Y, context, outcome on the joint table, outcome on the
# conditional-shaped ones): statements that each break two or more
# preconditions, with the error that wins. "ok" is a verdict.
ORDER_CASES = [
    ("CI", "", "Q", "", None, UNKNOWN_Q, UNKNOWN_Q),
    ("CI", "P", "Q", "", None, *["SchemaError: unknown variables: ['P']"] * 2),
    ("CI", "A", "B", "Q", None, UNKNOWN_Q, UNKNOWN_Q),
    ("CI", "A", "", "A", None, NONEMPTY, NONEMPTY),
    ("CI", "A", "A", "B", None, DISJOINT, DISJOINT),
    ("CI", "B", "C", "", None, "ok", TARGETS),
    ("CSI", "P", "B", "", {}, *["StatementError: CSI requires a nonempty context"] * 2),
    ("CSI", "", "B", "", {}, *["StatementError: CSI requires a nonempty context"] * 2),
    ("CSI", "", "B", "", {"Q": "0"}, NONEMPTY, NONEMPTY),
    ("CSI", "A", "B", "Q", {"Q": "0"}, UNKNOWN_Q, UNKNOWN_Q),
    ("CSI", "A", "B", "", {"Q": "0", "C": "7"}, *["SchemaError: unknown variable 'Q'"] * 2),
    ("CSI", "A", "B", "", {"C": "7", "Q": "0"},
     *["SchemaError: value '7' outside domain of variable 'C'"] * 2),
    ("CSI", "A", "B", "", {"B": "7"},
     *["SchemaError: value '7' outside domain of variable 'B'"] * 2),
    ("CSI", "A", "B", "", {"B": "0"}, DISJOINT, DISJOINT),
    ("CSI", "B", "C", "", {"D": "0"}, "ok", TARGETS),
    ("PCI", "P", "B", "", {},
     *["StatementError: PCI requires a fixed conditioning value"] * 2),
    ("PCI", "", "B", "", {"Q": "0"}, NONEMPTY, NONEMPTY),
    ("PCI", "A", "Q", "", {"Q": "0"}, UNKNOWN_Q, UNKNOWN_Q),
    ("PCI", "A", "B", "", {"Q": "0", "C": "7"}, *["SchemaError: unknown variable 'Q'"] * 2),
    ("PCI", "A", "B", "", {"A": "9"},
     *["SchemaError: value '9' outside domain of variable 'A'"] * 2),
    ("PCI", "A", "B", "", {"B": "0"}, DISJOINT, DISJOINT),
    ("PCI", "B", "C", "", {"D": "0"}, "ok", TARGETS),
    ("CWI", "P", "B", "", {}, *["StatementError: CWI requires a nonempty context"] * 2),
    ("CWI", "", "Q", "", {"B": "0"}, UNKNOWN_Q, UNKNOWN_Q),
    ("CWI", "", "B", "", {"Q": "0"}, NONEMPTY, NONEMPTY),
    ("CWI", "A", "B", "", {"Q": "0"}, *["SchemaError: unknown variable 'Q'"] * 2),
    ("CWI", "A", "B", "", {"C": "5"},
     *["SchemaError: value '5' outside domain of variable 'C'"] * 2),
    ("CWI", "A", "B", "", {"B": "0"}, DISJOINT, DISJOINT),
    ("CWI", "A", "B", "", {"C": "0"}, COVER, COVER),
    ("CWI", "B", "AC", "", {"D": "0"}, "ok", TARGETS),
    ("WI", "Q", "B", "CD", None, UNKNOWN_Q, UNKNOWN_Q),
    ("WI", "", "B", "CD", None, NONEMPTY, NONEMPTY),
    ("WI", "A", "BC", "B", None, DISJOINT, DISJOINT),
    ("WI", "A", "A", "BCD", None, DISJOINT, DISJOINT),
    ("WI", "A", "B", "", None, COVER, COVER),
    ("WI", "AB", "C", "D", None, "ok", TARGETS),
]


def _outcome(table, kind, x, z, y, context):
    call = {
        "CI": lambda: check_ci(table, tuple(x), tuple(z), tuple(y)),
        "CSI": lambda: check_csi(table, tuple(x), tuple(z), tuple(y), context),
        "PCI": lambda: check_pci(table, tuple(x), tuple(z), context),
        "CWI": lambda: check_cwi(table, tuple(x), tuple(z), context),
        "WI": lambda: check_wi(table, tuple(x), tuple(z), tuple(y)),
    }[kind]
    try:
        call()
    except (SchemaError, StatementError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


@pytest.mark.parametrize("table_kind", ["joint", "conditional", "raw"])
@pytest.mark.parametrize("kind", independence.STATEMENT_KINDS)
def test_statement_checks_keep_their_order(kind, table_kind):
    """Each check refuses a statement at the first broken precondition: a
    contextual kind's empty context, then unknown names in X, Z and Y, empty X
    or Z, the context's unknown names and values in its own order, overlapping
    sets, a weak statement short of the schema, and last a conditional-shaped
    table's target-set."""
    configs = list(product("01", repeat=4))
    if table_kind == "joint":
        table = make_table([(v, "01") for v in "ABCD"], [(c, "1/16") for c in configs])
    else:
        table = make_table([(v, "01") for v in "ABCD"], [(c, "1/2") for c in configs],
                           table_kind, ("A",), ("B", "C", "D"))
    cases = [case for case in ORDER_CASES if case[0] == kind]
    got = [_outcome(table, *case[:5]) for case in cases]
    assert got == [case[5 if table_kind == "joint" else 6] for case in cases]


def test_ci_implies_wi_random():
    rng = random.Random(100)
    stream = list(util.random_tables(seed=101, count=80)) + [
        util.random_factorized_table(rng, [f"V{i}" for i in range(3)])
        for _ in range(40)
    ]
    held = 0
    for table in stream:
        names = table.schema.names
        for x, z, y in util.tripartitions(names, dedup=True):
            if check_ci(table, x, z, y).holds:
                held += 1
                assert check_wi(table, x, z, y).holds
    assert held > 0


def test_csi_implies_cwi_random():
    held = 0
    for table in util.random_tables(seed=202, count=60, sizes=((3, 2), (3, 3))):
        names = table.schema.names
        for x, z, c_vars in util.tripartitions(names):
            if not c_vars:
                continue
            for values in product(
                *(table.schema.variable(n).domain for n in c_vars)
            ):
                ctx = dict(zip(c_vars, values))
                if check_csi(table, x, z, (), ctx).holds:
                    held += 1
                    assert check_cwi(table, x, z, ctx).holds
    assert held > 0


def test_symmetry_under_swap():
    for table in util.random_tables(seed=303, count=80):
        names = table.schema.names
        for x, z, y in util.tripartitions(names, dedup=True):
            assert check_ci(table, x, z, y).holds == check_ci(table, z, x, y).holds
            assert check_wi(table, x, z, y).holds == check_wi(table, z, x, y).holds


def test_wi_matches_bruteforce_oracle():
    for table in util.random_tables(seed=404, count=80, sizes=((3, 2), (3, 3))):
        names = table.schema.names
        for x, z, y in util.tripartitions(names, dedup=True):
            assert check_wi(table, x, z, y).holds == oracles.wi_oracle(
                table, x, z, y
            )


def test_cwi_matches_bruteforce_oracle():
    for table in util.random_tables(seed=505, count=50, sizes=((3, 2), (3, 3))):
        names = table.schema.names
        for x, z, c_vars in util.tripartitions(names):
            if not c_vars:
                continue
            for values in product(
                *(table.schema.variable(n).domain for n in c_vars)
            ):
                ctx = dict(zip(c_vars, values))
                assert check_cwi(table, x, z, ctx).holds == oracles.cwi_oracle(
                    table, x, z, ctx
                )


def test_certificate_replay(csi_cpt, cwi_cpt, wi_cpt, noncommuting):
    verdicts = [
        (csi_cpt, check_ci(csi_cpt, ("X",), ("Z", "W"), ("Y",))),
        (csi_cpt, check_csi(csi_cpt, ("X",), ("Z", "W"), (), {"Y": "0"})),
        (cwi_cpt, check_pci(cwi_cpt, ("X",), ("Z", "W"), {"Y": "0"})),
        (cwi_cpt, check_cwi(cwi_cpt, ("X",), ("Z", "W"), {"Y": "0"})),
        (cwi_cpt, check_cwi(cwi_cpt, ("X",), ("Z", "W"), {"Y": "1"})),
        (wi_cpt, check_wi(wi_cpt, ("X",), ("Z", "W"), ("Y",))),
        (noncommuting, check_wi(noncommuting, ("A1",), ("A3",), ("A2",))),
    ]
    for table, verdict in verdicts:
        assert replay(table, verdict)
    # A tampered verdict no longer replays.
    table, verdict = verdicts[0]
    tampered = independence.Verdict(
        verdict.statement, not verdict.holds, verdict.certificate
    )
    assert not replay(table, tampered)


def test_verdict_json_round_trip(wi_cpt):
    verdict = check_wi(wi_cpt, ("X",), ("Z", "W"), ("Y",))
    doc = verdict.to_json_dict()
    text = json.dumps(doc, indent=2)
    assert json.loads(text) == doc


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_wi_on_wi_cpt(wi_cpt):
    result = enumerate_statements(wi_cpt, ("WI",))
    assert not result.truncated
    wanted = [
        v
        for v in result.verdicts
        if set(v.statement.x) == {"X"}
        and set(v.statement.z) == {"Z", "W"}
        and set(v.statement.y) == {"Y"}
    ]
    assert len(wanted) == 1 and wanted[0].holds


def test_enumerate_empty_kinds(wi_cpt):
    assert enumerate_statements(wi_cpt, ()).verdicts == ()


def test_enumerate_csi_on_csi_cpt(csi_cpt):
    result = enumerate_statements(csi_cpt, ("CSI",))
    picked = [
        v
        for v in result.verdicts
        if set(v.statement.x) == {"X"}
        and set(v.statement.z) == {"Z", "W"}
        and dict(v.statement.context).keys() == {"Y"}
    ]
    assert len(picked) == 2
    holding = {dict(v.statement.context)["Y"] for v in picked if v.holds}
    assert holding == {"0"}


def test_enumerate_is_deterministic(cwi_cpt):
    a = enumerate_statements(cwi_cpt, ("CWI", "PCI"))
    b = enumerate_statements(cwi_cpt, ("CWI", "PCI"))
    assert [v.to_json_dict() for v in a.verdicts] == [
        v.to_json_dict() for v in b.verdicts
    ]


def test_enumerate_truncation_marker(wi_cpt):
    result = enumerate_statements(wi_cpt, ("WI",), Limits(max_statements=2))
    assert result.truncated
    assert len(result.verdicts) == 2


@pytest.mark.parametrize("most", [0, 2, 160])
def test_enumerate_checks_only_what_it_returns(monkeypatch, wi_cpt, most):
    """``max_statements`` N runs N checks: the first N verdicts of the full
    enumeration (160 on ``wi_cpt``), truncated when it holds more."""
    full = enumerate_statements(wi_cpt, independence.STATEMENT_KINDS)
    calls = []
    for name in ("check_ci", "check_csi", "check_pci", "check_cwi", "check_wi"):
        real = getattr(independence, name)
        monkeypatch.setattr(independence, name, lambda *a, real=real: calls.append(a) or real(*a))
    result = enumerate_statements(wi_cpt, independence.STATEMENT_KINDS, Limits(max_statements=most))
    assert len(calls) == len(result.verdicts) == most
    assert len(full.verdicts) == 160 and result.verdicts == full.verdicts[:most]
    assert result.truncated is (most < 160)


def test_enumerate_unknown_kind(wi_cpt):
    with pytest.raises(StatementError):
        enumerate_statements(wi_cpt, ("XX",))


def test_enumerate_reads_kinds_once(wi_cpt):
    """A one-shot iterator of kinds gives what the tuple gives, and one with
    an unknown kind is refused."""
    assert len(enumerate_statements(wi_cpt, ("CI", "WI")).verdicts) == 14
    for kinds in (("CI", "WI"), ("WI",)):
        assert enumerate_statements(wi_cpt, iter(kinds)) == enumerate_statements(wi_cpt, kinds)
    with pytest.raises(StatementError, match=r"unknown statement kinds: \['NOPE'\]"):
        enumerate_statements(wi_cpt, iter(("NOPE",)))


def test_enumerate_truncates_only_expressible_statements():
    """A conditional table of targets A, B and given C expresses no CWI
    statement, so a context cap of 0 leaves none out."""
    rows = [(cfg, "1/4") for cfg in product("01", repeat=3)]
    table = make_table([(v, "01") for v in "ABC"], rows, "conditional", ("A", "B"), ("C",))
    result = enumerate_statements(table, ("CWI",), Limits(max_contexts=0))
    assert result == independence.EnumerationResult((), False)


class Checked(Exception):
    """Raised by a stubbed checker: the enumeration got past its count."""


def _stub_checks(monkeypatch):
    def checked(*args):
        raise Checked

    for name in ("check_ci", "check_csi", "check_pci", "check_cwi", "check_wi"):
        monkeypatch.setattr(independence, name, checked)


@pytest.mark.parametrize("limits, count", [
    (Limits(), 160), (Limits(max_contexts=1), 38), (Limits(max_contexts=0), 14),
])
def test_enumerate_counts_before_the_first_check(monkeypatch, wi_cpt, limits, count):
    """``wi_cpt``'s statements are counted before the first check, each
    vector's contexts capped at ``max_contexts``. A bound of that count lets
    them through and one less refuses them, unless ``max_statements`` is at or
    below the bound."""
    _stub_checks(monkeypatch)
    kinds = independence.STATEMENT_KINDS
    monkeypatch.setattr(independence, "MAX_STATEMENTS", count)
    with pytest.raises(Checked):
        enumerate_statements(wi_cpt, kinds, limits)
    monkeypatch.setattr(independence, "MAX_STATEMENTS", count - 1)
    with pytest.raises(LimitError, match=f"^{count} statements exceed bound {count - 1} "):
        enumerate_statements(wi_cpt, kinds, limits)
    with pytest.raises(Checked):
        enumerate_statements(wi_cpt, kinds, replace(limits, max_statements=count - 1))
    with pytest.raises(LimitError):
        enumerate_statements(wi_cpt, kinds, replace(limits, max_statements=count))


@pytest.mark.parametrize("size, refused", [
    (22, None), (23, "21352 statements exceed bound 20000 on enumeration"),
], ids=["within", "past"])
def test_enumerate_bound_on_one_row_tables(monkeypatch, size, refused):
    """One row over four variables of domain d comes to 100 + 96d + 36d²
    statements: d = 22 (19,636) is the widest such table within
    ``MAX_STATEMENTS``, and d = 23 the first past it, refused before any check."""
    _stub_checks(monkeypatch)
    domain = [str(d) for d in range(size)]
    table = make_table([(f"V{i}", domain) for i in range(4)], [(("0",) * 4, "1")])
    with pytest.raises(LimitError if refused else Checked) as raised:
        enumerate_statements(table, independence.STATEMENT_KINDS)
    assert refused is None or str(raised.value) == refused


# ---------------------------------------------------------------------------
# differential test against the naive twins
# ---------------------------------------------------------------------------


@st.composite
def statements(draw, drawn_tables=util.kinded_tables()):
    """A table with a random role per variable and a context drawn per role C."""
    table = draw(drawn_tables)
    names = table.schema.names
    if table.kind == "joint":
        # "-" leaves a variable out, which only strong statements allow.
        roles = {v: draw(st.sampled_from("XZYC-")) for v in names}
        x, z = draw(st.permutations(names))[:2]
        roles.update({x: "X", z: "Z"})
    else:
        roles = {v: "X" for v in table.targets}
        roles.update({v: draw(st.sampled_from("ZYC")) for v in table.givens})
        roles[draw(st.sampled_from(table.givens))] = "Z"
    groups = {r: tuple(v for v in names if roles[v] == r) for r in "XZYC"}
    context = {v: draw(st.sampled_from(table.schema.variable(v).domain)) for v in groups["C"]}
    return table, groups, context


def _verdicts(table, g, context, kinds=independence.STATEMENT_KINDS):
    calls = {
        "CI": lambda: check_ci(table, g["X"], g["Z"], g["Y"] + g["C"]),
        "CSI": lambda: check_csi(table, g["X"], g["Z"], g["Y"], context),
        "PCI": lambda: check_pci(table, g["X"], g["Z"] + g["Y"], context),
        "CWI": lambda: check_cwi(table, g["X"], g["Z"] + g["Y"], context),
        "WI": lambda: check_wi(table, g["X"], g["Z"], g["Y"] + g["C"]),
    }
    out = {}
    for kind in kinds:
        try:
            out[kind] = calls[kind]()
        except StatementError as exc:
            out[kind] = str(exc)
    return out


@given(statements())
@settings(max_examples=400, deadline=None)
@example((make_table(
    [("A", "01"), ("B", "012"), ("C", "01")],
    [(("0", "0", "0"), "1/2"), (("1", "1", "1"), "1/2")],
), {"X": ("A",), "Z": ("C",), "Y": (), "C": ("B",)}, {"B": "2"}))
@example((make_table(
    [("X", "01"), ("Y", "012"), ("Z", "012")],
    [(("0", "0", "0"), "1/2"), (("1", "0", "0"), "1/2"), (("0", "0", "1"), "1"),
     (("0", "1", "2"), "1/3"), (("1", "1", "2"), "2/3")],
    "conditional", ("X",), ("Y", "Z"),
), {"X": ("X",), "Z": ("Z",), "Y": (), "C": ("Y",)}, {"Y": "2"}))
def test_checks_match_naive_twins(case):
    table, groups, context = case
    fast = _verdicts(table, groups, context)
    with mock.patch.object(independence, "_strong_check", oracles.naive_strong_check), \
            mock.patch.object(independence, "_class_report", oracles.naive_class_report):
        naive = _verdicts(table, groups, context)
    # Dataclass equality compares every certificate field, Fractions exactly.
    assert fast == naive
    try:
        extension = tables.uniform_joint_extension(table)
    except SchemaError:
        with pytest.raises(SchemaError):
            oracles.naive_uniform_joint_extension(table)
        return
    assert extension == oracles.naive_uniform_joint_extension(table)
    assert list(extension.rows) == list(table.rows)


@st.composite
def wide_statements(draw):
    """``statements`` over ``util.wide_tables``; half the time the context is a
    row's, so that it meets the few rows of its wide domains."""
    table, groups, context = draw(statements(util.wide_tables()))
    if context and draw(st.booleans()):
        row = draw(st.sampled_from(list(table.rows)))
        context = {v: row[table.schema.names.index(v)] for v in context}
    return table, groups, context


@given(wide_statements())
@settings(max_examples=150, deadline=None)
@example((make_table(  # a raw baseline of 1: the declared z walked to the first absent
    [("X", "01"), ("G0", [str(d) for d in range(50)]), ("G1", [str(d) for d in range(50)])],
    [(("1", "0", "0"), "1"), (("1", "0", "1"), "1"), (("1", "0", "10"), "1"),
     (("0", "49", "49"), "1/2")],
    "raw", ("X",), ("G0", "G1"),
), {"X": ("X",), "Z": ("G0", "G1"), "Y": (), "C": ()}, {}))
@example((make_table(  # rows at y = 10 first; y = 2 comes first in domain order
    [("Y", [str(d) for d in range(12)]), ("X", "01"), ("Z", "01")],
    [(("10", "0", "0"), "1/4"), (("10", "1", "1"), "1/4"), (("2", "0", "0"), "1/4"),
     (("2", "1", "1"), "1/4")],
), {"X": ("X",), "Z": ("Z",), "Y": ("Y",), "C": ()}, {}))
@example((make_table(  # rows at z = 10 first; z = 2 comes first in domain order
    [("X", "01"), ("Z", [str(d) for d in range(12)])],
    [(("0", "10"), "1/4"), (("0", "2"), "1/4"), (("1", "2"), "1/2")],
), {"X": ("X",), "Z": ("Z",), "Y": (), "C": ()}, {}))
@example((make_table(  # embedded: two rows share the (y, z, x) cell X = Z = 0
    [("W", [str(d) for d in range(20)]), ("X", "01"), ("Z", "01")],
    [(("5", "0", "0"), "1/4"), (("17", "0", "0"), "1/4"), (("5", "1", "1"), "1/2")],
), {"X": ("X",), "Z": ("Z",), "Y": (), "C": ()}, {}))
def test_strong_checks_match_twin_on_wide_domains(case):
    """CI, CSI and PCI walk only supported keys; the twin walks every declared
    cell. Their verdicts and certificates agree on few rows over wide domains."""
    table, groups, context = case
    fast = _verdicts(table, groups, context, ("CI", "CSI", "PCI"))
    with mock.patch.object(independence, "_strong_check", oracles.naive_strong_check):
        assert _verdicts(table, groups, context, ("CI", "CSI", "PCI")) == fast


CACHED = {"weights", "_support"}  # the cached properties of a Table


def _cached(table):
    """A table's cached properties by name, and its support's ``thetas``."""
    found = {name: vars(table)[name] for name in CACHED & vars(table).keys()}
    support = found.get("_support")
    if support is not None and "thetas" in vars(support):
        found["thetas"] = support.thetas
    return found


def _fresh(table):
    """The same rows in a new table, whose cached weights, support and thetas
    are not built yet."""
    rows = dict(table.rows)
    return tables.Table._built(table.schema, rows, table.kind, table.targets, table.givens)


def _docs(verdicts):
    return {k: v if isinstance(v, str) else v.to_json_dict() for k, v in verdicts.items()}


@given(statements())
@settings(max_examples=150, deadline=None)
def test_verdicts_same_on_cold_and_warm_views(case):
    """A table's cached weights, support and thetas change no verdict. Each
    kind's verdict on a fresh table equals the one after
    ``enumerate_statements`` has warmed them, and the naive twins' on that warm
    table."""
    table, groups, context = case
    fresh = _fresh(table)
    assert not _cached(fresh)
    cold = _docs(_verdicts(fresh, groups, context))
    enumerate_statements(table, independence.STATEMENT_KINDS, Limits(max_contexts=2))
    warm = _cached(table)
    assert warm["_support"] is table.support()
    assert _docs(_verdicts(table, groups, context)) == cold
    assert all(_cached(table)[name] is part for name, part in warm.items())
    with mock.patch.object(independence, "_strong_check", oracles.naive_strong_check), \
            mock.patch.object(independence, "_class_report", oracles.naive_class_report):
        assert _docs(_verdicts(table, groups, context)) == cold


def test_wi_reuses_theta_per_variable_set(wi_cpt):
    """``check_wi`` keeps ``theta`` of the full support per variable set, and
    the partitions it keeps are the ones ``theta`` computes afresh."""
    table = _fresh(wi_cpt)
    first = check_wi(table, ("X",), ("Z", "W"), ("Y",))
    thetas = dict(table.support().thetas)
    assert set(thetas) == {frozenset({"X", "Y"}), frozenset({"Y", "Z", "W"})}
    with mock.patch.object(independence, "theta", side_effect=AssertionError):
        again = check_wi(table, ("X",), ("Z", "W"), ("Y",))
    assert again == first
    support = table.support()
    assert all(part == partitions.theta(support, key) for key, part in thetas.items())


@pytest.mark.parametrize("kind", ["conditional", "raw"])
def test_conditional_shaped_classes_keep_their_own_denominator(kind):
    """A conditional-shaped table whose one common denominator passes
    ``MAX_LITERAL_DIGITS`` digits still gets a weak verdict where each class's
    own denominator prints: its classes are scaled alone, as the twin's are."""
    a, b = 10**2200 + 1, 10**2200 + 3
    table = make_table(
        [("A", "0123"), ("B", "01")],
        [(("0", "0"), Fraction(1, a)), (("1", "0"), Fraction(a - 1, a)),
         (("2", "1"), Fraction(1, b)), (("3", "1"), Fraction(b - 1, b))],
        kind, ("A",), ("B",),
    )
    assert table.validate().ok  # each given-column sums to 1 on its own
    with pytest.raises(LimitError, match="passes 4300 digits"):
        table.total_mass()
    verdict = check_wi(table, ("A",), ("B",), ())
    with mock.patch.object(independence, "_class_report", oracles.naive_class_report):
        assert check_wi(_fresh(table), ("A",), ("B",), ()) == verdict
    assert verdict.holds and len(verdict.certificate.classes) == 2
    assert not check_ci(table, ("A",), ("B",), ()).holds
