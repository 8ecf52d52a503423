"""Correctness gate: every answer is checked against a source other than the
code path that was timed.

* Strong verdicts (CI/CSI/PCI) against a cross-multiplied mass identity
  computed here from the table rows.
* WI verdicts against nest commutation, the paper's equivalent condition,
  and against the brute-force oracles of ``tests/oracles.py`` when the
  support is small enough for their cubic pair sets.
* Enumerations against an independently listed statement set.
* Closures by replaying every trace, checking that each trace only uses
  statements derived before it, and checking that the statement set is
  closed under all five rules; with both, it is the unique least fixed
  point. Where a digest of the sorted statement set was recorded for the
  seed, it must match too.

Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import importlib.util
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

from weakind import axioms, granular

ROOT = Path(__file__).resolve().parent.parent
ORACLES = ROOT / "tests" / "oracles.py"

# tests/oracles.py builds explicit pair sets and composes them by triple
# loops; above this many support rows the gate uses nest commutation only.
ORACLE_ROWS = 36

ZERO = Fraction(0)


def _load_oracles():
    spec = importlib.util.spec_from_file_location("weakind_test_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def nest_oracle(table, x, z) -> bool:
    """WI(X, Z | rest) holds iff nesting X and Z commutes."""
    return granular.nest_commutes(table, x, z).equal


def wi_oracle(table, x, z, y) -> bool | None:
    """Brute-force WI, or None when the support is too large for it."""
    if len(table.rows) > ORACLE_ROWS:
        return None
    return oracles.wi_oracle(table, list(x), list(z), list(y))


def max_join_block(table, x, z, y, context) -> int:
    """Rows in the largest block of the join of theta(X∪Y) and theta(Y∪Z).

    Computed here by union-find over rows that share an (X, Y) or a (Y, Z)
    value, on the support restricted to the context.
    """
    at = {n: i for i, n in enumerate(table.schema.names)}
    rows = [
        cfg for cfg in table.rows
        if all(cfg[at[c]] == v for c, v in context.items())
    ]
    parent = list(range(len(rows)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    y = tuple(y) + tuple(context)
    for side in (tuple(x) + y, y + tuple(z)):
        first: dict = {}
        for i, cfg in enumerate(rows):
            j = first.setdefault(tuple(cfg[at[v]] for v in side), i)
            parent[find(i)] = find(j)
    sizes: dict = {}
    for i in range(len(rows)):
        sizes[find(i)] = sizes.get(find(i), 0) + 1
    return max(sizes.values(), default=0)


def same_joint(a, b) -> bool:
    """Same variables, domains and masses, whatever the column order."""
    if sorted(a.schema.variables, key=lambda v: v.name) != sorted(
        b.schema.variables, key=lambda v: v.name
    ):
        return False
    order = [b.schema.names.index(n) for n in a.schema.names]
    return a.rows == {tuple(cfg[i] for i in order): p for cfg, p in b.rows.items()}


def strong_oracle(table, x, z, y, context) -> bool:
    """X ⊥ Z | Y within a context, as P(xgz)·P(g) = P(xg)·P(gz) for all x.

    ``g`` is a Y-value together with the context; only (g, z) with positive
    mass constrain anything, and x ranges over the declared domain.
    """
    names = table.schema.names
    at = {n: i for i, n in enumerate(names)}
    m_g: dict = {}
    m_gz: dict = {}
    m_gx: dict = {}
    m_gzx: dict = {}
    for cfg, p in table.rows.items():
        if any(cfg[at[c]] != v for c, v in context.items()):
            continue
        g = tuple(cfg[at[v]] for v in y)
        zv = tuple(cfg[at[v]] for v in z)
        xv = tuple(cfg[at[v]] for v in x)
        m_g[g] = m_g.get(g, ZERO) + p
        m_gz[g, zv] = m_gz.get((g, zv), ZERO) + p
        m_gx[g, xv] = m_gx.get((g, xv), ZERO) + p
        m_gzx[g, zv, xv] = m_gzx.get((g, zv, xv), ZERO) + p
    xs = list(product(*(table.schema.variable(v).domain for v in x)))
    return all(
        m_gzx.get((g, zv, xv), ZERO) * m_g[g] == m_gx.get((g, xv), ZERO) * pgz
        for (g, zv), pgz in m_gz.items()
        for xv in xs
    )


def _role_splits(names, roles, required):
    for vec in product(roles, repeat=len(names)):
        groups = {r: tuple(n for n, v in zip(names, vec) if v == r) for r in "XZYC"}
        if all(groups[r] for r in required):
            yield groups


def expected_statements(table):
    """Every nonembedded statement ``enumerate`` must answer, listed anew."""
    names = sorted(table.schema.names)
    schema = table.schema

    def contexts(vs):
        ordered = schema.order(vs)
        for values in product(*(schema.variable(v).domain for v in ordered)):
            yield dict(zip(ordered, values))

    out = []
    for g in _role_splits(names, "XZY", "XZ"):
        out.append(("CI", g["X"], g["Z"], g["Y"], None))
    for g in _role_splits(names, "XZY", "XZY"):
        for ctx in contexts(g["Y"]):
            out.append(("PCI", g["X"], g["Z"], (), ctx))
    for g in _role_splits(names, "XZYC", "XZC"):
        for ctx in contexts(g["C"]):
            out.append(("CSI", g["X"], g["Z"], g["Y"], ctx))
    for g in _role_splits(names, "XZC", "XZC"):
        for ctx in contexts(g["C"]):
            out.append(("CWI", g["X"], g["Z"], (), ctx))
    for g in _role_splits(names, "XZY", "XZ"):
        out.append(("WI", g["X"], g["Z"], g["Y"], None))
    return out


def _statement_id(kind, x, z, y, ctx):
    order = lambda vs: tuple(sorted(vs))
    return (kind, order(x), order(z), order(y), None if ctx is None else tuple(sorted(ctx.items())))


def enumeration_ok(table, doc) -> bool:
    """The statement set is complete and every verdict matches its oracle."""
    expected = expected_statements(table)
    verdicts = doc["verdicts"]
    if doc["count"] != len(expected) or len(verdicts) != len(expected):
        return False
    if {_statement_id(*s) for s in expected} != {
        _statement_id(
            v["statement"]["kind"], v["statement"]["x"], v["statement"]["z"],
            v["statement"]["y"], v["statement"]["context"],
        )
        for v in verdicts
    }:
        return False
    for v in verdicts:
        s = v["statement"]
        kind, x, z, y, ctx = s["kind"], s["x"], s["z"], s["y"], s["context"] or {}
        if kind == "WI":
            want = nest_oracle(table, x, z)
        elif kind == "CWI":
            want = oracles.cwi_oracle(table, x, z, ctx)
        else:
            want = strong_oracle(table, x, z, y, ctx)
        if v["holds"] is not want:
            return False
    return True


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def statement_digest(result) -> str:
    """Digest of the sorted canonical statement set (trace order excluded)."""
    keys = sorted(s.key() for s in result.statements)
    return hashlib.sha256(repr(keys).encode("utf-8")).hexdigest()


def _key(kind, x, z, y):
    return (kind, tuple(sorted(x)), tuple(sorted(z)), tuple(sorted(y)))


def _canonical_key(stmt):
    """Key of a literal conclusion once its overlap with Y is removed."""
    return _key(stmt.kind, stmt.x - stmt.y, stmt.z - stmt.y, stmt.y)


def _subsets(values):
    ordered = sorted(values)
    for size in range(len(ordered) + 1):
        for combo in combinations(ordered, size):
            yield frozenset(combo)


def is_closed(result, universe) -> bool:
    """No rule instance over canonical members concludes outside the set."""
    u = tuple(sorted(universe))
    keys = {s.key() for s in result.statements}
    canonical = {s.key(): s for s in result.statements if s.canonical}

    def has(literal):
        return _canonical_key(literal) in keys

    for y in _subsets(u):
        if not all(has(axioms.apply_wi1(u, x, y)) for x in _subsets(y)):
            return False
    for s in canonical.values():
        if s.kind == "CI":
            if not has(axioms.apply_ciwi1(s)):
                return False
            continue
        for w in _subsets(s.y):
            if not all(has(c) for c in axioms.apply_wi2(s, w)):
                return False
        for w in _subsets(s.z):
            if not has(axioms.apply_wi3(s, w)):
                return False
        # s as the first CIWI2 premise; the split fixes the other two.
        for z1 in _subsets(s.y):
            y = s.y - z1
            p2 = canonical.get(_key("WI", s.x, z1, y | s.z))
            p3 = canonical.get(_key("CI", z1, s.z, y | s.x))
            if p2 is not None and p3 is not None:
                if not has(axioms.apply_ciwi2(s, p2, p3)):
                    return False
    return True


def closure_ok(result, premises, universe, digest=None) -> bool:
    available = {p.key() for p in premises}
    for trace in result.traces:
        if not axioms.replay_trace(trace):
            return False
        if any(p.key() not in available for p in trace.premises):
            return False
        available.add(trace.statement.key())
    if available != {s.key() for s in result.statements}:
        return False
    if digest is not None and statement_digest(result) != digest:
        return False
    return is_closed(result, universe)
