"""The workloads, as lists of operations with golden checks.

An operation is ``Op(key, call, record)``: ``call()`` is the timed library
work, and ``record(result)`` turns its output into the form stored in the
golden table (``golden.json``, recorded at the seed commit and keyed by
``Op.key``).  ``check`` compares the two and raises ``GoldenMismatch``.

Every op builds its groups, actions and nets from plain data, so no
library cache (``Subgroup`` canonical forms, ``Action`` powers,
``FolnerNet`` subsets) carries over from one op or pass to the next.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# library functions are called through their modules, so that the
# wrappers installed by tracing.py see these calls too
from amenact import cli, duality
from amenact.abelian import FiniteProduct, Subgroup
from amenact.actions import Action
from amenact.monoid import FreeCommutative, MSubset
from amenact.scenarios import BUILTINS

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# The Fibonacci-base shift on (Z/6 x Z/6)^(Z) with two multi-index
# generators: about 95% of its time is lattices.hnf, redone at every index.
FIBONACCI_SHIFT = {
    "kind": "entropy",
    "demonstrates": "Fibonacci-base shift on (Z/6 x Z/6)^(Z), two multi-index generators",
    "monoid": {"family": "Z^d", "dim": 1},
    "group": {"family": "direct-sum", "base": [6, 6], "index": {"family": "Z^d", "dim": 1}},
    "action": {"generators": [
        {"kind": "shift", "by": [1], "base": {"kind": "matrix", "rows": [[0, 1], [1, 1]]}},
    ]},
    "seed": {"subgroup_basis": [
        [[[0], [1, 0]], [[1], [0, 1]]],
        [[[0], [2, 3]], [[2], [1, 1]]],
    ]},
    "net": {"family": "box"},
}

# half-size companion of the tiling-square builtin, for its growth pair
TILING_HALF = dict(
    BUILTINS["tiling-square"],
    region=50,
    demonstrates="greedy box tiling of a 50x50 square within a 10% defect, certificate-checked",
)

# (scenario, prefix) pairs of entropy-lattice: each at n and 2n
ENTROPY_LATTICE_OPS = [
    ("fibonacci-shift", 20), ("fibonacci-shift", 40),
    ("bridge-bernoulli", 20), ("bridge-bernoulli", 40),
    ("quotient-vanishing", 16), ("quotient-vanishing", 24),
]

CT_SAMPLES = 3  # sampled (endomorphism, subgroup) pairs per group, windows 1..4
N1 = FreeCommutative(1)

# the heaviest function of each workload, and the duality layer's subgroup
# enumeration, each measured at size n and 2n
GROWTH_PAIRS = [
    ("lattices.hnf", "fibonacci-shift@20", "fibonacci-shift@40"),
    ("duality.subgroup_lattice", "duality:120", "duality:240"),
    ("folner.greedy_tiler", "tiling-half", "tiling-square"),
]


class GoldenMismatch(Exception):
    pass


@dataclass
class Op:
    key: str
    call: Callable[[], Any]
    record: Callable[[Any], dict]


def check(op: Op, result, golden: dict):
    got = op.record(result)
    want = golden.get(op.key)
    if want is None:
        raise GoldenMismatch(f"{op.key}: no golden entry")
    if got == want:
        return
    for n, (a, b) in enumerate(zip(got.get("counts", []), want.get("counts", [])), start=1):
        if a != b:
            raise GoldenMismatch(f"{op.key}: count at net index {n} is {a}, expected {b}")
    diff = {k: got.get(k) for k in got.keys() | want.keys() if got.get(k) != want.get(k)}
    raise GoldenMismatch(f"{op.key}: output differs from the golden table: {diff}")


class Context:
    """Where a run writes its scenario files and CSV tables (inside the checkout)."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.csv_dir = workdir / "csv"
        self.csv_dir.mkdir(parents=True, exist_ok=True)
        self.scenario_files = {}
        for name, spec in (("fibonacci-shift", FIBONACCI_SHIFT), ("tiling-half", TILING_HALF)):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(spec))
            self.scenario_files[name] = str(path)


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------------------
# scenario ops: cli.run_scenario with an output directory, CSV compared


def scenario_op(ctx: Context, scenario: str, prefix=None) -> Op:
    key = scenario if prefix is None else f"{scenario}@{prefix}"
    source = ctx.scenario_files.get(scenario, scenario)
    csv_path = ctx.csv_dir / f"{scenario}.csv"

    def call():
        csv_path.unlink(missing_ok=True)
        return cli.run_scenario(source, ctx.csv_dir, prefix)

    def record(result):
        """Exit code, CSV digest, and the exact counts of entropy tables."""
        code, message = result
        if not csv_path.exists():
            return {"exit": code, "message": message}
        data = csv_path.read_bytes()
        out = {"exit": code, "csv_sha256": hashlib.sha256(data).hexdigest()}
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if rows and "count" in rows[0]:
            out["counts"] = [int(row["count"]) for row in rows]
        return out

    return Op(key, call, record)


# ---------------------------------------------------------------------------
# duality ops: one finite product per op (the subgroup_lattice growth pair)


def duality_op(factors, seed) -> Op:
    """subgroup_lattice; order, annihilator and double annihilator of every
    subgroup; ct_check for seed-sampled endomorphisms at windows 1..4."""
    key = "duality:" + "x".join(map(str, factors))

    def call():
        group = FiniteProduct(factors)
        orders = Counter()
        for gens, elems in duality.subgroup_lattice(group):
            b = Subgroup.generated(group, gens)
            order = b.order()
            perp = duality.annihilator(b)
            if order != len(elems) or order * perp.order() != group.order:
                raise GoldenMismatch(f"{key}: order law fails for generators {gens}")
            if duality.annihilator(perp).elements() != elems:
                raise GoldenMismatch(f"{key}: double annihilator differs for {gens}")
            orders[order] += 1
        rng = random.Random(f"{seed}:{key}")
        for _ in range(CT_SAMPLES):
            alpha = Action(N1, group, [duality.random_endomorphism(group, rng)])
            gens = [tuple(rng.randrange(n) for n in factors) for _ in range(rng.randint(1, 2))]
            b = Subgroup.generated(group, gens)
            for k in range(1, 5):
                report = duality.ct_check(alpha, b, MSubset.of(N1, [(i,) for i in range(k)]))
                if not report.equal:
                    raise GoldenMismatch(f"{key}: |T_F| != [A^ : C_F] for {gens} at window {k}")
        return orders

    def record(orders):
        """Subgroup count and the number of subgroups of each order."""
        return {"subgroups": sum(orders.values()),
                "orders": {str(o): orders[o] for o in sorted(orders)}}

    return Op(key, call, record)


# ---------------------------------------------------------------------------
# workloads: one pass is a fixed list of ops, in seed-shuffled order


def build_pass(workload: str, ctx: Context, seed: int) -> list[Op]:
    rng = random.Random(seed)
    if workload == "entropy-lattice":
        ops = [scenario_op(ctx, s, p) for s, p in ENTROPY_LATTICE_OPS]
    elif workload == "builtins":
        ops = [scenario_op(ctx, name) for name in sorted(BUILTINS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def growth_ops(ctx: Context, seed: int) -> dict[str, Op]:
    """The ops named in GROWTH_PAIRS, by key."""
    return {
        "fibonacci-shift@20": scenario_op(ctx, "fibonacci-shift", 20),
        "fibonacci-shift@40": scenario_op(ctx, "fibonacci-shift", 40),
        "duality:120": duality_op((120,), seed),
        "duality:240": duality_op((240,), seed),
        "tiling-half": scenario_op(ctx, "tiling-half"),
        "tiling-square": scenario_op(ctx, "tiling-square"),
    }
