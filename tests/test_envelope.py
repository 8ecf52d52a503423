"""Resource envelope of the CLI on hostile inputs.

Each case runs ``weakind`` in a child process under its own address-space
limit (``RLIMIT_AS``) and CPU-time limit (``RLIMIT_CPU``), and must finish
inside them with its pinned report. A child that reaches its CPU limit is
killed by a signal (the soft and hard limits are equal, so ``SIGKILL`` can
come with ``SIGXCPU``); one that passes its memory limit exits on
``MemoryError``; either fails the case.

So far the cases are the ``check`` verb's, one-row tables whose declared
products run to millions of cells (``util.hostile_tables``) and a WI check on
a 16,383-row grid whose one join block fails (``util.grid_document``), an
``enumerate`` whose statement count passes its bound, and JSON inputs that
the parser cannot read: nested too deep, or an integer past Python's digit cap.
"""

import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

from weakind import __version__, tables

import util

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
LIMITS = {resource.RLIMIT_AS: 512 * 2**20, resource.RLIMIT_CPU: 5}  # bytes, seconds


def _limit():
    for which, bound in LIMITS.items():
        resource.setrlimit(which, (bound, bound))


def run_limited(args, document):
    """``weakind *args`` with ``document`` on stdin, in a child under ``LIMITS``.
    ``args`` names stdin as ``-``: the INPUT argument, or an option's file."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "weakind.cli", *args],
        input=document, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit, env={**os.environ, "PYTHONPATH": path},
    )


# name -> (table digest, holds, certificate) of ``check --kind ci`` on the table.
CHECKS = {
    "wide_z": (
        "471cafa883d1ec9a42f2113f5f475ab521eeccae84b5dfffa867a4b5d2dc87d7", True,
        {"comparisons": 2, "vacuous": 7_999_999, "context_in_support": True,
         "counterexample": None},
    ),
    "wider_z": (
        "3e19ba2a0c7caf8e53bfb8e6453d741abb1cb32595f0a5dc2f11a18efb7b1c08", True,
        {"comparisons": 2, "vacuous": 999_999_999, "context_in_support": True,
         "counterexample": None},
    ),
    "wide_x": (
        "f7be9f8dc4aabb43cdc2321deee09bcbd2fcb6c678252b5f74eacf42ff2956ba", True,
        {"comparisons": 1_000_000, "vacuous": 1, "context_in_support": True,
         "counterexample": None},
    ),
    "raw": (
        "535b58088a136844eae13b99419cea20ad35ab2f7e9e5090279326e60f5ba817", False,
        {"comparisons": 1_679_610, "vacuous": 0, "context_in_support": True,
         "counterexample": {"x": ["5"], "y": [], "z": ["5"] * 7, "value": "1/1",
                            "reference_z": ["0"] * 7, "reference": "0/1"}},
    ),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_on_wide_declared_products(name):
    table, x, z = util.hostile_tables()[name]
    digest, holds, certificate = CHECKS[name]
    args = ["check", "--kind", "ci", "--x", ",".join(x), "--z", ",".join(z), "-"]
    result = run_limited(args, tables.serialize_table(table))
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout) == {
        "version": __version__, "command": "check", "table_digest": digest,
        "statement": {"kind": "CI", "x": list(x), "z": list(z), "y": [], "context": None},
        "holds": holds, "certificate": certificate,
    }


def test_check_wi_on_a_grid_whose_corner_classes_come_last():
    """``check --kind wi`` on the 128 x 128 grid less its corner: the block's
    first 16,129 rows have no partner, so a witness search that probes pairs
    in row order makes some 10^8 probes; the witness comes from cell counts."""
    result = run_limited(["check", "--kind", "wi", "--x", "X", "--z", "Z", "-"],
                         util.grid_document(128))
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout) == {
        "version": __version__, "command": "check",
        "table_digest": "9b60be43e49e35d07b7e138b201dc7cb1bd145f750a9d152ecc257c04b0c836e",
        "statement": {"kind": "WI", "x": ["X"], "z": ["Z"], "y": [], "context": None},
        "holds": False,
        "certificate": {"support": [f"t{k}" for k in range(1, 16_384)], "commutes": False,
                        "witness": ["t16130", "t16257"], "classes": [], "vacuous": False},
    }


def test_enumerate_refuses_a_wide_one_row_table():
    """One row over four variables of domain 60, a 3,719-byte document, comes
    to 135,460 statements over all five kinds: refused before the first check,
    unless ``--max-statements`` caps them."""
    domain = [str(d) for d in range(60)]
    table = util.make_table([(f"V{i}", domain) for i in range(4)], [(("0",) * 4, "1")])
    document = tables.serialize_table(table)
    assert len(document) == 3719
    args = ["enumerate", "--kinds", "ci,csi,pci,cwi,wi"]
    result = run_limited([*args, "-"], document)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "Error: 135460 statements exceed bound 20000 on enumeration\n"
    result = run_limited([*args, "--max-statements", "50", "-"], document)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["count"] == 50


@pytest.mark.parametrize("args, document", [
    (["check", "--kind", "wi", "--x", "A", "--z", "B", "-"], "[" * 100_000),
    (["nest", "--by", "A", "--as", "B", "-"], "[" * 100_000),
    (["derive", "--universe", "A,B", "--premises", "-"], "[" + "1" * 4_301 + "]"),
], ids=["check-deep", "nest-deep", "derive-big-integer"])
def test_unreadable_json_is_one_line(args, document):
    """A JSON document nested 100,000 deep, or a premise file holding an integer
    of more than 4,300 digits, exits 2 with one line: no traceback."""
    result = run_limited(args, document)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("Error: malformed JSON document: ")
    assert result.stderr.count("\n") == 1
