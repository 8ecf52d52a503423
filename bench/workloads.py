"""Seeded op sets for the three benchmark workloads.

Every workload is split in two steps. ``generate`` draws the raw inputs
(integer weights, block layouts, supports, premise roles) from a
``random.Random`` seeded by the command line; it is the benchmark's own
random generation and is not timed. ``build`` turns those raw inputs into
library objects -- tables, JSON documents, premises -- and is timed as
set-up. The seed changes values only: the families, sizes, request kinds and
universes of a workload are the same for every seed, so a gain measured on
one seed can be re-checked on another.

An op is one closed-loop request. Its ``call`` is the timed work and looks
the library functions up at call time, so the traced run sees the span
recorders installed on the modules.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from itertools import product
from typing import Any, Callable

from weakind import axioms, granular, tables

import gate

FULL = "full"
TINY = "tiny"


@dataclass
class Op:
    """One request: timed ``call``, untimed fingerprint and correctness gate."""

    family: str
    call: Callable[[], Any]
    key: Callable[[Any], Any]
    check: Callable[["Op", Any], bool]
    expect: Any = None  # answer known by construction; None lets the gate derive it
    # "oracle": the gate's own source when ``expect`` is None; "table",
    # "split" (x, z, y, context of a weak statement), "verb", "universe" and
    # "premises" describe the input for the run's details.
    props: dict = field(default_factory=dict)


def _names(n: int) -> list[str]:
    return [f"V{i}" for i in range(n)]


def _schema(names: list[str], dom: int) -> tables.VariableSchema:
    return tables.VariableSchema(
        tuple(tables.Variable(n, tuple(str(v) for v in range(dom))) for n in names)
    )


def _normalized(weights: dict[tuple, int]) -> dict[tuple, Fraction]:
    total = sum(weights.values())
    return {cfg: Fraction(w, total) for cfg, w in weights.items() if w}


def _space(n: int, dom: int) -> list[tuple[str, ...]]:
    return list(product(*[[str(v) for v in range(dom)]] * n))


# ---------------------------------------------------------------------------
# check-large: big single requests through the CLI
# ---------------------------------------------------------------------------

# Table families, each a list of (variables, domain size). Sizes are fixed; only
# the values drawn from the seed differ between seeds.
CHECK_SHAPES = {
    FULL: {
        "product": [(6, 3)] * 3,
        "block": [(6, 4)] * 2,
        "random-full": [(6, 3)] * 4 + [(5, 4)] * 4,
        "sparse": [(6, 4)] * 4,
        "enumerate": [(4, 3)],
    },
    TINY: {
        "product": [(4, 2)],
        "block": [(4, 4)],
        "random-full": [(3, 2)],
        "sparse": [(4, 3)],
        "enumerate": [(3, 2)],
    },
}
SPARSE_DENSITY = 0.3


def _product_raw(rng: random.Random, n: int, dom: int) -> dict:
    """Product of independent factors over three variable groups."""
    names = _names(n)
    cut = [0, n // 3, 2 * n // 3, n]
    groups = [names[cut[i] : cut[i + 1]] for i in range(3)]
    factors = [
        {cfg: rng.randint(1, 9) for cfg in _space(len(g), dom)} for g in groups
    ]
    weights = {}
    for cfg in _space(n, dom):
        w = 1
        for (lo, hi), f in zip(zip(cut, cut[1:]), factors):
            w *= f[cfg[lo:hi]]
        weights[cfg] = w
    ctx = {v: str(rng.randrange(dom)) for v in groups[2]}
    return {"n": n, "dom": dom, "weights": weights, "groups": groups, "ctx": ctx}


def _block_raw(rng: random.Random, n: int, dom: int) -> dict:
    """A scaled-up ``wi_cpt``: per Y-value, two X-blocks matched to two Z-blocks.

    X is V0 and Y is V1; the block of a Z-configuration is fixed by V2. Inside
    a block the mass factorizes into an X-part and a Z-part, so WI(X, Z | Y)
    holds, while X's distribution differs between the blocks, so CI fails.
    """
    names = _names(n)
    half = dom // 2
    weights = {}
    for y in range(dom):
        xs = rng.sample(range(dom), dom)
        zs = rng.sample(range(dom), dom)
        for b in range(2):
            x_block = xs[b * half : (b + 1) * half]
            z_first = zs[b * half : (b + 1) * half]
            wx = {x: rng.randint(1, 9) for x in x_block}
            rest = _space(n - 3, dom)
            wz = {(z, r): rng.randint(1, 9) for z in z_first for r in rest}
            for x in x_block:
                for (z, r), w in wz.items():
                    weights[(str(x), str(y), str(z)) + r] = wx[x] * w
    ctx = {names[1]: str(rng.randrange(dom))}
    return {"n": n, "dom": dom, "weights": weights, "ctx": ctx}


def _random_raw(rng: random.Random, n: int, dom: int, density: float = 1.0) -> dict:
    space = _space(n, dom)
    if density < 1.0:
        space = rng.sample(space, round(density * len(space)))
    weights = {cfg: rng.randint(1, 9) for cfg in space}
    anchor = rng.choice(sorted(weights))  # a supported row, for contexts
    return {"n": n, "dom": dom, "weights": weights, "anchor": anchor}


def _enumerate_raw(rng: random.Random, n: int, dom: int) -> dict:
    weights = {cfg: rng.randint(0, 9) for cfg in _space(n, dom)}
    if not any(weights.values()):
        weights[next(iter(weights))] = 1
    return {"n": n, "dom": dom, "weights": weights}


def generate_check(seed: int, scale: str = FULL) -> dict:
    rng = random.Random(seed * 3 + 0)
    makers = {
        "product": _product_raw,
        "block": _block_raw,
        "random-full": _random_raw,
        "sparse": lambda r, n, d: _random_raw(r, n, d, SPARSE_DENSITY),
        "enumerate": _enumerate_raw,
    }
    return {
        family: [makers[family](rng, n, dom) for n, dom in shapes]
        for family, shapes in CHECK_SHAPES[scale].items()
    }


def cli_request(args: list[str], document: str) -> str:
    """Run one CLI request in-process, feeding ``document`` on stdin."""
    from weakind import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(document)
    try:
        with redirect_stdout(out):
            cli.main.main(args + ["-"], prog_name="weakind", standalone_mode=False)
    finally:
        sys.stdin = saved
    return out.getvalue()


def _holds(op: Op, raw: str) -> bool:
    want = op.expect if op.expect is not None else op.props["oracle"]()
    return json.loads(raw)["holds"] is want


def _request(family, table, doc, kind, x, z, y=(), context=None, expect=None, oracle=None) -> Op:
    """A ``check`` request on ``doc``, the serialized ``table``."""
    args = ["check", "--kind", kind, "--x", ",".join(x), "--z", ",".join(z)]
    if y:
        args += ["--y", ",".join(y)]
    if context:
        args += ["--context", ",".join(f"{k}={v}" for k, v in context.items())]
    weak = kind in ("wi", "cwi")
    return Op(
        family,
        lambda: cli_request(args, doc),
        key=lambda raw: raw,
        check=_holds,
        expect=expect,
        props={
            "verb": "check:" + kind,
            "table": table,
            "split": (x, z, y, context or {}) if weak else None,
            "oracle": oracle,
        },
    )


def build_check(raw: dict) -> list[Op]:
    ops: list[Op] = []
    for spec in raw["product"]:
        table = tables.Table(_schema(_names(spec["n"]), spec["dom"]), _normalized(spec["weights"]))
        doc = tables.serialize_table(table)
        g1, g2, g3 = spec["groups"]
        last = {g3[-1]: spec["ctx"][g3[-1]]}
        # Every statement separates whole factor groups, so each holds.
        for statement in (
            ("ci", g1, g2, g3),
            ("wi", g1, g2, g3),
            ("wi", g1, g2 + g3),
            ("csi", g1, g2, g3[:-1], last),
            ("pci", g1, g2, (), spec["ctx"]),
            ("cwi", g1, g2 + g3[1:], (), {g3[0]: spec["ctx"][g3[0]]}),
        ):
            ops.append(_request("product", table, doc, *statement, expect=True))
    for spec in raw["block"]:
        names = _names(spec["n"])
        table = tables.Table(_schema(names, spec["dom"]), _normalized(spec["weights"]))
        doc = tables.serialize_table(table)
        x, y, z = names[:1], names[1:2], names[2:]
        ops.append(_request("block", table, doc, "wi", x, z, y, expect=True))
        ops.append(_request("block", table, doc, "ci", x, z, y, expect=False))
        ops.append(_request("block", table, doc, "cwi", x, z, (), spec["ctx"], expect=True))
    for spec in raw["random-full"]:
        names = _names(spec["n"])
        table = tables.Table(_schema(names, spec["dom"]), _normalized(spec["weights"]))
        doc = tables.serialize_table(table)
        x, z = names[:1], names[1:]
        # Y is empty, so the whole support is one join block.
        ops.append(_request(
            "random-full", table, doc, "wi", x, z,
            oracle=partial(gate.nest_oracle, table, x, z),
        ))
    for spec in raw["sparse"]:
        names = _names(spec["n"])
        table = tables.Table(_schema(names, spec["dom"]), _normalized(spec["weights"]))
        doc = tables.serialize_table(table)
        anchor = dict(zip(names, spec["anchor"]))
        x, y, z = names[:1], names[1:2], names[2:]
        c = names[-1]
        ops.append(_request(
            "sparse", table, doc, "wi", x, z, y,
            oracle=partial(gate.nest_oracle, table, x, z),
        ))
        # Strong statements, gated by the mass identity on the same sets.
        for kind, sets in (
            ("ci", (x, z[:1], y, {})),
            ("csi", (x, z[:-1], y, {c: anchor[c]})),
            ("pci", (x, z[:1], (), {y[0]: anchor[y[0]]})),
        ):
            ops.append(_request(
                "sparse", table, doc, kind, *sets,
                oracle=partial(gate.strong_oracle, table, *sets),
            ))
    for spec in raw["enumerate"]:
        table = tables.Table(_schema(_names(spec["n"]), spec["dom"]), _normalized(spec["weights"]))
        doc = tables.serialize_table(table)
        args = ["enumerate", "--kinds", "ci,csi,pci,cwi,wi"]
        ops.append(Op(
            "enumerate",
            lambda args=args, doc=doc: cli_request(args, doc),
            key=lambda raw: raw,
            check=lambda op, raw, t=table: gate.enumeration_ok(t, json.loads(raw)),
            props={"verb": "enumerate", "table": table},
        ))
    return ops


# ---------------------------------------------------------------------------
# equivalence-small: WI against nest commutation on many small tables
# ---------------------------------------------------------------------------

# Domain sizes per table, and for factorized tables the variable groups
# (by position) whose product the table is; None is an unstructured random
# table. Random tables almost never satisfy WI, so the factorized ones give
# the holds side of the equivalence its share of the work.
_EQUIV_DOMS = [(2, 2, 2), (3, 3, 3), (2, 2, 3), (2, 3, 3),
               (2, 2, 2, 2), (3, 3, 3, 3), (2, 2, 3, 3), (2, 3, 3, 3)]
_EQUIV_GROUPS = {3: ((0,), (1, 2)), 4: ((0, 1), (2, 3))}
EQUIV_SHAPES = {
    FULL: [(d, None) for d in _EQUIV_DOMS] * 3
    + [(d, _EQUIV_GROUPS[len(d)]) for d in _EQUIV_DOMS] * 3,
    TINY: [((2, 2, 2), None), ((2, 2, 2, 2), ((0, 1), (2, 3)))],
}


def tripartitions(names):
    """(X, Z, Y) splits with X, Z nonempty, one of each mirrored pair."""
    out = []
    for vec in product("XZY", repeat=len(names)):
        groups = {r: tuple(n for n, v in zip(names, vec) if v == r) for r in "XZY"}
        x, z, y = groups["X"], groups["Z"], groups["Y"]
        if x and z and x <= z:
            out.append((x, z, y))
    return out


def generate_equivalence(seed: int, scale: str = FULL) -> list[dict]:
    rng = random.Random(seed * 3 + 1)
    specs = []
    for doms, groups in EQUIV_SHAPES[scale]:
        names = _names(len(doms))
        space = list(product(*[[str(v) for v in range(d)] for d in doms]))
        if groups is None:
            weights = {cfg: rng.randint(0, 9) for cfg in space}
            if not any(weights.values()):
                weights[rng.choice(space)] = 1
        else:
            factors = [
                {part: rng.randint(1, 9) for part in product(*[range(doms[i]) for i in g])}
                for g in groups
            ]
            weights = {}
            for cfg in space:
                w = 1
                for g, f in zip(groups, factors):
                    w *= f[tuple(int(cfg[i]) for i in g)]
                weights[cfg] = w
        subset = rng.sample(names, rng.randint(1, len(names) - 1))
        specs.append({"doms": doms, "weights": weights, "subset": sorted(subset)})
    return specs


def _equivalence_ok(op: Op, report) -> bool:
    if not report.agree:
        return False
    want = op.expect if op.expect is not None else op.props["oracle"]()
    return want is None or report.wi_holds is want


def _roundtrip(table, subset):
    back = granular.unnest(granular.nest(table, "B", subset), "B")
    return back, granular.canonical_equal(back, table)


def build_equivalence(specs: list[dict]) -> list[Op]:
    ops: list[Op] = []
    for spec in specs:
        names = _names(len(spec["doms"]))
        schema = tables.VariableSchema(
            tuple(
                tables.Variable(n, tuple(str(v) for v in range(d)))
                for n, d in zip(names, spec["doms"])
            )
        )
        table = tables.Table(schema, _normalized(spec["weights"]))
        for x, z, y in tripartitions(names):
            ops.append(Op(
                "equivalence",
                lambda t=table, x=x, z=z, y=y: granular.wi_nest_equivalence(t, x, z, y),
                key=lambda r: (r.wi_holds, r.nests_commute, r.agree),
                check=_equivalence_ok,
                props={
                    "table": table,
                    "split": (x, z, y, {}),
                    "oracle": partial(gate.wi_oracle, table, x, z, y),
                },
            ))
        ops.append(Op(
            "roundtrip",
            lambda t=table, s=spec["subset"]: _roundtrip(t, s),
            key=lambda r: (r[1], tuple(sorted(r[0].rows.items()))),
            check=lambda op, r, t=table: r[1] is True and gate.same_joint(t, r[0]),
            props={"table": table},
        ))
    return ops


# ---------------------------------------------------------------------------
# closure-dense: the five-rule closure alone
# ---------------------------------------------------------------------------

# (universe size, premises, of which CI) per premise set, sparse to dense.
CLOSURE_SHAPES = {
    FULL: [(4, 10, 4)] * 40 + [(5, 20, 8)] * 16 + [(6, 40, 16)] * 4,
    TINY: [(3, 3, 1), (4, 4, 2)],
}


def generate_closure(seed: int, scale: str = FULL) -> list[dict]:
    """Premise sets with one variable in X, one in Z and the rest in Y.

    Such premises are canonical and non-degenerate. With one variable on
    each side the closure's size, and so its cost, varies by about 5%
    between premise sets; mixed or unconstrained sizes varied from 13% to
    twofold.
    """
    rng = random.Random(seed * 3 + 2)
    specs = []
    for size, count, n_ci in CLOSURE_SHAPES[scale]:
        universe = [chr(ord("A") + i) for i in range(size)]
        seen: dict[tuple, tuple] = {}
        kinds = ["CI"] * n_ci + ["WI"] * (count - n_ci)
        while len(seen) < count:
            kind = kinds[len(seen)]
            x, z, *y = rng.sample(universe, size)
            seen.setdefault((kind, x, z), (kind, (x,), tuple(sorted(y))))
        specs.append({"universe": universe, "premises": list(seen.values())})
    return specs


def build_closure(specs: list[dict]) -> list[Op]:
    ops: list[Op] = []
    for spec in specs:
        u = spec["universe"]
        premises = [axioms.statement(kind, x, y, u) for kind, x, y in spec["premises"]]
        ops.append(Op(
            f"universe-{len(u)}",
            lambda p=premises, u=u: axioms.closure(p, u),
            key=gate.statement_digest,
            check=lambda op, r, p=premises, u=u: gate.closure_ok(r, p, u, op.expect),
            props={"universe": len(u), "premises": len(premises)},
        ))
    return ops


WORKLOADS = {
    "check-large": (generate_check, build_check, "cli.main", ("weakind", "weakind.cli")),
    "equivalence-small": (generate_equivalence, build_equivalence, "bench.op", ("weakind",)),
    "closure-dense": (generate_closure, build_closure, "bench.op", ("weakind",)),
}
