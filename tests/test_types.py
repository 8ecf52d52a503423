"""The package's record types, and what importing the package loads.

Field-only records are ``typing.NamedTuple``s; types that check their input or
cache derived values are plain classes on ``weakind._frozen.Frozen``. Both kinds
refuse assignment, and their ``==`` and repr are pinned here.
"""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

import pytest

from weakind import axioms, granular, independence, partitions, tables

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Imported where they are used, never by ``import weakind``.
NOT_AT_IMPORT = {"dataclasses", "hashlib", "csv", "random"}
SUBMODULES = {f"weakind.{name}" for name in
              ("axioms", "errors", "granular", "independence", "partitions", "tables")}


def test_import_loads_no_dataclasses_hashlib_or_csv():
    """A child interpreter lists what ``import weakind`` adds to ``sys.modules``:
    every submodule, and none of the modules the package imports where used."""
    code = ("import sys\nbefore = set(sys.modules)\nimport weakind\n"
            "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True, env={**os.environ, "PYTHONPATH": path})
    added = set(done.stdout.split())
    assert SUBMODULES <= added
    assert not NOT_AT_IMPORT & added


def _instances(wi_cpt, nest_demo):
    """One instance of each record type, by type name, with its field names."""
    ci = independence.check_ci(wi_cpt, ["X"], ["Z"], ["Y", "W"])
    wi = independence.check_wi(wi_cpt, ["X"], ["Z", "W"], ["Y"])
    support = wi_cpt.support()
    p, q = (partitions.theta(support, names) for names in (["X", "Y"], ["Y", "Z", "W"]))
    result = axioms.closure([axioms.statement("WI", "A", "B", "ABC")], "ABC")
    equivalence = granular.wi_nest_equivalence(wi_cpt, ["X"], ["Z", "W"], ["Y"])
    nested = granular.nest(nest_demo, "B", nest_demo.schema.names[:1])
    position = nested.names.index("B")
    halves = tables.Table(wi_cpt.schema, {next(iter(wi_cpt.rows)): Fraction(1, 2)})
    found = [
        wi_cpt.schema.variables[0], wi_cpt.schema, wi_cpt, support, p,
        partitions.commutes(p, q), ci, ci.statement, ci.certificate,
        ci.certificate.counterexample, wi.certificate, wi.certificate.classes[0],
        independence.ClassCounterexample(("0",), ("1",), Fraction(1, 2), ("0",),
                                         Fraction(1, 3), "constancy"),
        independence.Limits(),
        independence.enumerate_statements(wi_cpt, ["WI"], independence.Limits(1, 1)),
        halves.validate(), halves.validate().violations[0],
        result, result.traces[0], result.traces[0].statement,
        axioms.soundness_probe(variables=2, trials=1),
        axioms.ProbeViolation(0, "WI3", result.traces[0].statement, "direct"),
        equivalence, equivalence.commutation, nested, nested.attributes[position],
        next(iter(nested.rows))[position],
    ]
    fields = {"NestedCell": ("attributes", "weights")}
    return {type(obj).__name__: (obj, fields.get(type(obj).__name__, obj._fields))
            for obj in found}


def test_every_record_refuses_assignment(wi_cpt, nest_demo):
    """Assigning any field of any record type raises ``AttributeError``."""
    instances = _instances(wi_cpt, nest_demo)
    assert set(instances) == {
        "Statement", "Counterexample", "StrongCertificate", "ClassCounterexample",
        "ClassReport", "WeakCertificate", "Verdict", "Limits", "EnumerationResult",
        "Violation", "ValidationReport", "CommutationResult", "DerivationTrace",
        "ClosureResult", "ProbeViolation", "ProbeReport", "EquivalenceReport",
        "Variable", "VariableSchema", "Table", "SupportSet", "Partition", "NestedCell",
        "NestedTable", "Attribute", "NestCommutationReport", "AxiomStatement",
    }
    for name, (obj, fields) in instances.items():
        assert fields, name
        for field in fields:
            value = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, value)
            assert getattr(obj, field) is value, (name, field)


def test_every_record_survives_pickle_and_copy(wi_cpt, nest_demo):
    """A pickled or copied record equals the original; a nested cell rebuilds
    its hash from its weights."""
    for name, (obj, _) in _instances(wi_cpt, nest_demo).items():
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj, name


def test_records_with_a_pair_of_fields_equal_only_their_own_type():
    """``Variable`` and ``Attribute`` are both a name and a tuple, and an
    ``AxiomStatement`` holds a tuple of its fields: none of them equals an
    object of another type with the same values, on either side of ``==``."""
    variable = tables.Variable("A", ("0", "1"))
    attribute = granular.Attribute("A", ("0", "1"))
    stmt = axioms.statement("WI", "A", "B", "ABC")
    fields = namedtuple("Fields", "kind x z y universe")(*stmt)
    pairs = [
        (variable, attribute), (variable, ("A", ("0", "1"))),
        (attribute, ("A", ("0", "1"))), (stmt, tuple(stmt)), (stmt, type(stmt).__base__(*stmt)),
    ]
    for a, b in pairs:
        assert a != b and b != a and not a == b and not b == a
    assert stmt != fields and not stmt == fields
    assert tuple(stmt) not in {stmt} and stmt not in {tuple(stmt)}
    assert variable == tables.Variable("A", ("0", "1"))
    assert hash(variable) == hash(tables.Variable("A", ("0", "1")))
    assert attribute == granular.Attribute("A", ("0", "1"))
    assert stmt == axioms.statement("WI", ["A"], ["B"], "CBA") and not stmt != stmt
    assert hash(stmt) == hash(axioms.statement("WI", "A", "B", "ABC"))


def test_reprs_name_every_field(wi_cpt):
    """Reprs in the ``Name(field=value, ...)`` form, pinned on single-member
    sets, whose repr does not depend on the hash seed."""
    assert repr(wi_cpt.schema.variables[0]) == "Variable(name='X', domain=('0', '1', '2', '3'))"
    wi = independence.check_wi(wi_cpt, ["X"], ["Z", "W"], ["Y"])
    assert repr(wi.statement) == (
        "Statement(kind='WI', x=('X',), z=('Z', 'W'), y=('Y',), context=None)"
    )
    assert repr(independence.check_ci(wi_cpt, ["X"], ["Z"], ["Y", "W"])) == (
        "Verdict(statement=Statement(kind='CI', x=('X',), z=('Z',), y=('Y', 'W'), "
        "context=None), holds=False, certificate=StrongCertificate(comparisons=96, "
        "vacuous=0, context_in_support=True, counterexample=Counterexample(x=('0',), "
        "y=('0', '0'), z=('2',), value=Fraction(0, 1), reference_z=('0',), "
        "reference=Fraction(1, 2))))"
    )
    assert repr(axioms.statement("WI", "A", "B", "ABC")) == (
        "AxiomStatement(kind='WI', x=frozenset({'A'}), z=frozenset({'C'}), "
        "y=frozenset({'B'}), universe=('A', 'B', 'C'))"
    )
