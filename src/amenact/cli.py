"""Batch front door: scenario files in, exact CSV tables (and plots) out.

Usage:
    amenact run <file-or-builtin> [--out DIR] [--prefix N] [--budget M]
                [--log-base B] [--plot]
    amenact list
    amenact describe <kind>

Exit codes: 0 all checks pass; 1 a check failed; 2 schema error, bad option
or construction error; 3 budget exceeded.  Scenario files are JSON; unknown
keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .abelian import DirectSum, FiniteProduct, FiniteSubset, FreeZ, Subgroup
from .actions import (
    Action,
    MatrixEndo,
    addition_check,
    h_alg_estimate,
    identity_endo,
    quotient_and_sub_actions,
    scalar_endo,
    shift_endo,
    trajectory_function,
)
from .duality import annihilator, bridge_check, subgroup_lattice
from .errors import (
    AmenactError,
    BudgetExceededError,
    GroupMismatchError,
    MonoidMismatchError,
    NotInvariantError,
    SchemaError,
    UndecidableFamilyError,
    UnsupportedQuotientError,
)
from .folner import (
    box_net,
    canonical_net,
    check_tiling,
    greedy_tiler,
    product_net,
    remtil_check,
    semidirect_defect,
    verify_folner,
)
from .integral import card, card_pi, constant, fubini_check, integral
from .monoid import (
    FiniteAbelianMonoid,
    FreeAbelian,
    FreeCommutative,
    MSubset,
    ProductMonoid,
    find_good_section,
    mod_hom,
    projection_hom,
    sym_diff_ratio,
)
from .scenarios import BUILTINS
from .tables import csv_table

KINDS = (
    "folner-verify",
    "canonical-net",
    "tiling",
    "semidirect-defect",
    "integral",
    "fubini",
    "entropy",
    "addition",
    "bridge",
    "duality-props",
)

_COMMON_KEYS = {"kind", "name", "demonstrates", "checks", "prefix", "budget", "seed_rng", "plot"}
_KIND_KEYS = {
    "folner-verify": {"monoid", "test", "net"},
    "canonical-net": {"monoid", "requests"},
    "tiling": {"dim", "region", "tiles", "epsilon"},
    "semidirect-defect": {"element", "pairs"},
    "integral": {"monoid", "function", "net"},
    "fubini": {"monoid", "action", "target", "seed", "hom", "n_prefix", "c_prefix"},
    "entropy": {"monoid", "group", "action", "seed", "net"},
    "addition": {"monoid", "group", "action", "subgroup", "net"},
    "bridge": {"monoid", "group", "action", "seed", "net"},
    "duality-props": {"groups"},
}


class CheckFailure(AmenactError):
    pass


# a well-formed scenario that describes no valid action, subgroup or quotient
_CONSTRUCTION_ERRORS = (
    GroupMismatchError,
    MonoidMismatchError,
    NotInvariantError,
    UndecidableFamilyError,
    UnsupportedQuotientError,
)


# ---------------------------------------------------------------------------
# spec parsers


def _expect(cond, message):
    if not cond:
        raise SchemaError(message)


def parse_monoid(spec):
    _expect(isinstance(spec, dict) and "family" in spec, "monoid spec needs a family")
    fam = spec["family"]
    if fam == "N^d":
        _expect(set(spec) <= {"family", "dim"}, f"unknown keys in {spec}")
        return FreeCommutative(int(spec["dim"]))
    if fam == "Z^d":
        _expect(set(spec) <= {"family", "dim"}, f"unknown keys in {spec}")
        return FreeAbelian(int(spec["dim"]))
    if fam == "finite":
        _expect(set(spec) <= {"family", "factors"}, f"unknown keys in {spec}")
        return FiniteAbelianMonoid(tuple(int(n) for n in spec["factors"]))
    if fam == "product":
        _expect(set(spec) <= {"family", "parts"}, f"unknown keys in {spec}")
        return ProductMonoid(tuple(parse_monoid(p) for p in spec["parts"]))
    raise SchemaError(f"unknown monoid family {fam!r}")


def parse_group(spec):
    _expect(isinstance(spec, dict) and "family" in spec, "group spec needs a family")
    fam = spec["family"]
    if fam == "free":
        _expect(set(spec) <= {"family", "rank"}, f"unknown keys in {spec}")
        return FreeZ(int(spec["rank"]))
    if fam == "finite":
        _expect(set(spec) <= {"family", "factors"}, f"unknown keys in {spec}")
        return FiniteProduct(tuple(int(n) for n in spec["factors"]))
    if fam == "direct-sum":
        _expect(set(spec) <= {"family", "base", "index"}, f"unknown keys in {spec}")
        base = FiniteProduct(tuple(int(n) for n in spec["base"]))
        return DirectSum(base, parse_monoid(spec["index"]))
    raise SchemaError(f"unknown group family {fam!r}")


def parse_element(group, data):
    if isinstance(group, DirectSum):
        return group.element([(tuple(i), tuple(v)) for i, v in data])
    return group.element(data)


def parse_endo(group, spec):
    _expect(isinstance(spec, dict) and "kind" in spec, "endomorphism spec needs a kind")
    kind = spec["kind"]
    if kind == "identity":
        _expect(set(spec) == {"kind"}, f"unknown keys in {spec}")
        return identity_endo(group)
    if kind == "scalar":
        _expect(set(spec) <= {"kind", "a"}, f"unknown keys in {spec}")
        return scalar_endo(group, int(spec["a"]))
    if kind == "matrix":
        _expect(set(spec) <= {"kind", "rows"}, f"unknown keys in {spec}")
        return MatrixEndo(group, tuple(tuple(int(x) for x in r) for r in spec["rows"]))
    if kind == "shift":
        _expect(set(spec) <= {"kind", "by", "base"}, f"unknown keys in {spec}")
        base = None
        if spec.get("base") is not None:
            base = parse_endo(group.base, spec["base"])
        return shift_endo(group, tuple(int(x) for x in spec["by"]), base)
    raise SchemaError(f"unknown endomorphism kind {kind!r}")


def parse_action(monoid, group, spec):
    _expect(isinstance(spec, dict) and set(spec) <= {"generators"}, "bad action spec")
    gens = [parse_endo(group, e) for e in spec["generators"]]
    return Action(monoid, group, gens)


def parse_seed(group, spec):
    _expect(isinstance(spec, dict) and len(spec) == 1, "seed spec needs exactly one key")
    if "set" in spec:
        return FiniteSubset(group, frozenset(parse_element(group, e) for e in spec["set"]))
    if "subgroup_basis" in spec:
        return Subgroup.generated(group, [parse_element(group, e) for e in spec["subgroup_basis"]])
    if "percoord_basis" in spec:
        _expect(isinstance(group, DirectSum), "percoord seeds need a direct sum")
        base_sub = Subgroup.generated(group.base, [tuple(int(x) for x in g) for g in spec["percoord_basis"]])
        return Subgroup.percoord(group, base_sub)
    raise SchemaError(f"unknown seed spec {sorted(spec)}")


def parse_hom(monoid, spec):
    _expect(isinstance(spec, dict) and "kind" in spec, "hom spec needs a kind")
    if spec["kind"] == "project":
        _expect(set(spec) <= {"kind", "coords"}, f"unknown keys in {spec}")
        return projection_hom(monoid, tuple(int(c) for c in spec["coords"]))
    if spec["kind"] == "mod":
        _expect(set(spec) <= {"kind", "factors"}, f"unknown keys in {spec}")
        return mod_hom(monoid, tuple(int(n) for n in spec["factors"]))
    raise SchemaError(f"unknown hom kind {spec['kind']!r}")


def parse_net(monoid, spec):
    _expect(isinstance(spec, dict) and "family" in spec, "net spec needs a family")
    if spec["family"] == "box":
        _expect(set(spec) == {"family"}, f"unknown keys in {spec}")
        return box_net(monoid)
    if spec["family"] == "product":
        _expect(set(spec) == {"family"}, f"unknown keys in {spec}")
        _expect(isinstance(monoid, ProductMonoid) and len(monoid.parts) == 2, "product nets need two parts")
        return product_net(box_net(monoid.parts[0]), box_net(monoid.parts[1]), monoid)
    raise SchemaError(f"unknown net family {spec['family']!r}")


# ---------------------------------------------------------------------------
# checks


def run_checks(checks, context):
    for check in checks or []:
        _expect(isinstance(check, dict) and "type" in check, "bad check spec")
        kind = check["type"]
        fn = _CHECKS.get(kind)
        _expect(fn is not None, f"unknown check type {kind!r}")
        fn(check, context)


def _tail_rows(context):
    est = context.get("estimate")
    _expect(est is not None, "this check needs a ratio table")
    return est


def _check_tail(check, context):
    est = _tail_rows(context)
    if abs(est.tail - check["value"]) > check.get("tol", 1e-9):
        raise CheckFailure(f"tail {est.tail!r} differs from {check['value']!r}")


def _check_tail_below(check, context):
    est = _tail_rows(context)
    if not est.tail < check["value"]:
        raise CheckFailure(f"tail {est.tail!r} is not below {check['value']!r}")


def _check_every_ratio(check, context):
    est = _tail_rows(context)
    for row in est.rows:
        if abs(row.ratio - check["value"]) > check.get("tol", 1e-9):
            raise CheckFailure(f"row {row.index}: ratio {row.ratio!r} != {check['value']!r}")


def _check_counts_power(check, context):
    counts = context.get("counts")
    _expect(counts is not None, "counts_power needs trajectory counts")
    base, scale = int(check["base"]), int(check.get("scale", 1))
    offset = int(check.get("offset", 0))
    for n, count in enumerate(counts, start=1):
        want = scale * base ** (n + offset)
        if count != want:
            raise CheckFailure(f"count at index {n} is {count}, expected {want}")


def _check_all_at_least(check, context):
    for row in context["values"]:
        if not row[-1] >= Fraction(check["value"]).limit_denominator(10**9):
            raise CheckFailure(f"value {row} fell below {check['value']}")


def _check_all_below(check, context):
    for row in context["values"]:
        if not row[-1] < Fraction(check["value"]).limit_denominator(10**9):
            raise CheckFailure(f"value {row} is not below {check['value']}")


def _check_difference_below(check, context):
    if not context["report"].difference < check["value"]:
        raise CheckFailure(
            f"two-sided difference {context['report'].difference!r} is not below {check['value']}"
        )


def _check_exact_product(check, context):
    if not context["report"].exact_at_every_index:
        raise CheckFailure("per-index order identity failed")


def _check_residual_below(check, context):
    if not context["report"].residual < check["value"]:
        raise CheckFailure(f"residual {context['report'].residual!r} too large")


def _check_exact_rows(check, context):
    if not context["report"].exact_at_every_index:
        raise CheckFailure("per-index bridge identity failed")


def _check_tails(check, context):
    report = context["report"]
    tol = check.get("tol", 1e-9)
    for tail in (report.algebraic_tail, report.topological_tail):
        if abs(tail - check["value"]) > tol:
            raise CheckFailure(f"tail {tail!r} differs from {check['value']!r}")


def _check_witness_valid(check, context):
    if not context["ok"]:
        raise CheckFailure(context.get("why", "witness invalid"))


def _check_precision_met(check, context):
    for row in context["values"]:
        if not row[-1]:
            raise CheckFailure(f"precision missed at {row}")


def _check_all_hold(check, context):
    bad = [row for row in context["values"] if not row[-1]]
    if bad:
        raise CheckFailure(f"{len(bad)} violations, first: {bad[0]}")


def _check_tail_defect_below(check, context):
    report = context["report"]
    if not report.tail_max() < Fraction(check["value"]).limit_denominator(10**9):
        raise CheckFailure(f"tail defect {report.tail_max()} is not below {check['value']}")


_CHECKS = {
    "tail": _check_tail,
    "tail_below": _check_tail_below,
    "every_ratio": _check_every_ratio,
    "counts_power": _check_counts_power,
    "all_at_least": _check_all_at_least,
    "all_below": _check_all_below,
    "difference_below": _check_difference_below,
    "exact_product": _check_exact_product,
    "residual_below": _check_residual_below,
    "exact_rows": _check_exact_rows,
    "tails": _check_tails,
    "witness_valid": _check_witness_valid,
    "precision_met": _check_precision_met,
    "all_hold": _check_all_hold,
    "tail_defect_below": _check_tail_defect_below,
}


# ---------------------------------------------------------------------------
# kind runners: each returns (csv_text, context)


def _run_entropy(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    group = parse_group(sc["group"])
    action = parse_action(monoid, group, sc["action"])
    seed = parse_seed(group, sc["seed"])
    net = parse_net(monoid, sc["net"])
    est = h_alg_estimate(action, seed, net, prefix, budget)
    return est.to_csv(), {"estimate": est.estimate, "counts": est.counts}


def _run_integral(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    fn_spec = sc["function"]
    _expect(isinstance(fn_spec, dict) and "kind" in fn_spec, "function spec needs a kind")
    if fn_spec["kind"] == "card":
        f = card(monoid)
    elif fn_spec["kind"] == "constant":
        f = constant(monoid, float(fn_spec["a"]))
    elif fn_spec["kind"] == "card_pi":
        f = card_pi(parse_hom(monoid, fn_spec["hom"]))
    else:
        raise SchemaError(f"unknown function kind {fn_spec['kind']!r}")
    net = parse_net(monoid, sc["net"])
    est = integral(f, net, prefix)
    return est.to_csv(), {"estimate": est}


def _run_fubini(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    group = parse_group(sc["target"])
    action = parse_action(monoid, group, sc["action"])
    seed = parse_seed(group, sc["seed"])
    f = trajectory_function(action, seed, budget)
    pi = parse_hom(monoid, sc["hom"])
    sigma = find_good_section(pi)
    _expect(isinstance(monoid, ProductMonoid), "the two-variable check runs on a product")
    s_net = product_net(box_net(monoid.parts[0]), box_net(monoid.parts[1]), monoid)
    c_net = box_net(pi.target)
    report = fubini_check(
        f, pi, sigma, s_net, c_net, None, prefix,
        c_prefix=sc.get("c_prefix"), n_prefix=sc.get("n_prefix"),
    )
    rows = [
        [tag, r.index, r.size, repr(r.value), repr(r.ratio)]
        for tag, est in (("S", report.left), ("C", report.right))
        for r in est.rows
    ]
    rows.append(["difference", "", "", "", repr(report.difference)])
    return csv_table("side,index,size,value,ratio", rows, "\n"), {"report": report}


def _run_addition(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    group = parse_group(sc["group"])
    action = parse_action(monoid, group, sc["action"])
    b = parse_seed(group, sc["subgroup"])
    net = parse_net(monoid, sc["net"])
    sub, quo, _ = quotient_and_sub_actions(action, b)
    report = addition_check(
        action, b, net, prefix,
        _default_generator_subgroup(group),
        _default_generator_subgroup(sub.group),
        _default_generator_subgroup(quo.group),
    )
    rows = [
        [row.index, row.size, ct, cs, cq, ct == cs * cq]
        for row, ct, cs, cq in zip(
            report.total.estimate.estimate.rows,
            report.total.estimate.counts,
            report.sub.estimate.counts,
            report.quotient.estimate.counts,
        )
    ]
    rows.append(
        ["values", "", "", repr(report.total.value), repr(report.sub.value), repr(report.quotient.value)]
    )
    header = "index,size,count_total,count_sub,count_quotient,product_exact"
    return csv_table(header, rows, "\n"), {"report": report}


def _default_generator_subgroup(group):
    if isinstance(group, DirectSum):
        gens = []
        k = len(group.base.factors)
        for t in range(k):
            val = tuple(int(i == t) for i in range(k))
            gens.append(group.basis_vector(group.index.identity, val))
        return Subgroup.generated(group, gens)
    if isinstance(group, FiniteProduct):
        return Subgroup.full(group)
    raise SchemaError("no default generator subgroup for this group")


def _run_bridge(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    group = parse_group(sc["group"])
    action = parse_action(monoid, group, sc["action"])
    seed = parse_seed(group, sc["seed"])
    net = parse_net(monoid, sc["net"])
    report = bridge_check(action, seed, net, prefix)
    return report.to_csv(), {"report": report}


def _run_semidirect(sc, prefix, budget):
    element = tuple(int(x) for x in sc["element"])
    values = []
    rows = []
    for n, m in sc["pairs"]:
        delta = semidirect_defect(int(n), int(m), element, budget)
        values.append((int(n), int(m), delta))
        rows.append([n, m, repr(float(delta))])
    return csv_table("n,m,defect", rows, "\n"), {"values": values}


def _run_tiling(sc, prefix, budget):
    dim = int(sc["dim"])
    monoid = FreeAbelian(dim)
    side = int(sc["region"])
    region = MSubset(monoid, frozenset(
        tuple(c) for c in _box_coords(side, dim)
    ))
    tiles = [
        MSubset(monoid, frozenset(tuple(c) for c in _box_coords(int(t), dim)))
        for t in sc["tiles"]
    ]
    eps = Fraction(sc["epsilon"])
    witness = greedy_tiler(region, tiles, eps)
    if witness is None:
        return "status\nno-witness\n", {"ok": False, "why": "greedy pass missed the bound"}
    report = check_tiling(region, witness, eps)
    rem = remtil_check(region, witness, eps)
    header = "d,u,b,disjoint,within,inside,covers,mass,reciprocal_gap_ok"
    row = [report.d, report.u, report.b, report.disjoint, report.within,
           report.inside, report.covers, report.mass, rem]
    return csv_table(header, [row], "\n"), {"ok": report.ok and rem}


def _box_coords(side, dim):
    from itertools import product as ip

    return ip(range(side), repeat=dim)


def _run_folner_verify(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    net = parse_net(monoid, sc["net"])
    test = MSubset.of(monoid, [tuple(e) for e in sc["test"]])
    report = verify_folner(net, test, prefix)
    return report.to_csv(), {"report": report}


def _run_canonical(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    net = canonical_net(monoid)
    values = []
    for req in sc["requests"]:
        _expect(set(req) <= {"test", "n"}, f"unknown keys in {req}")
        e = MSubset.of(monoid, [tuple(x) for x in req["test"]])
        n = int(req["n"])
        f = net.at(e, n)
        worst = max((sym_diff_ratio(f, s) for s in e), default=Fraction(0))
        values.append((n, len(f), worst, worst <= Fraction(1, n)))
    rows = [[n, size, repr(float(worst)), met] for n, size, worst, met in values]
    return csv_table("n,box_size,max_defect,precision_met", rows, "\n"), {"values": values}


def _run_duality_props(sc, prefix, budget):
    values = []
    for factors in sc["groups"]:
        g = FiniteProduct(tuple(int(n) for n in factors))
        subs = subgroup_lattice(g)
        order_law = double = True
        for gens, elems in subs:
            b = Subgroup.generated(g, gens)
            perp = annihilator(b)
            order_law = order_law and b.order() * perp.order() == g.order
            double = double and annihilator(perp).elements() == elems
        sum_law = True
        for gens1, _ in subs[: min(len(subs), 12)]:
            for gens2, _ in subs[: min(len(subs), 12)]:
                b1 = Subgroup.generated(g, gens1)
                b2 = Subgroup.generated(g, gens2)
                lhs = annihilator(b1.join(b2)).elements()
                rhs = annihilator(b1).elements() & annihilator(b2).elements()
                sum_law = sum_law and lhs == rhs
        ok = order_law and double and sum_law
        values.append((tuple(factors), len(subs), order_law, double, sum_law, ok))
    header = "group,subgroups,order_law,double_annihilator,sum_law,ok"
    rows = [["x".join(map(str, factors)), *rest] for factors, *rest in values]
    return csv_table(header, rows, "\n"), {"values": values}


_RUNNERS = {
    "entropy": _run_entropy,
    "integral": _run_integral,
    "fubini": _run_fubini,
    "addition": _run_addition,
    "bridge": _run_bridge,
    "semidirect-defect": _run_semidirect,
    "tiling": _run_tiling,
    "folner-verify": _run_folner_verify,
    "canonical-net": _run_canonical,
    "duality-props": _run_duality_props,
}


# ---------------------------------------------------------------------------
# plotting (single-file vector image of ratio vs index)


def ratio_plot_svg(est) -> str:
    rows = est.rows
    width, height, pad = 480, 280, 36
    xs = [r.index for r in rows]
    ys = [r.ratio for r in rows]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys + [0.0]), max(ys + [1e-9])
    sx = (width - 2 * pad) / max(1, x1 - x0)
    sy = (height - 2 * pad) / max(1e-12, y1 - y0)
    pts = " ".join(
        f"{pad + (x - x0) * sx:.2f},{height - pad - (y - y0) * sy:.2f}"
        for x, y in zip(xs, ys)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>'
        f'<text x="{pad}" y="{height - 8}" font-size="11">index {x0}..{x1}</text>'
        f'<text x="8" y="{pad - 12}" font-size="11">ratio {y0:.4g}..{y1:.4g}</text>'
        "</svg>\n"
    )


# ---------------------------------------------------------------------------
# entry points


def load_scenario(source: str) -> dict:
    if source in BUILTINS:
        return dict(BUILTINS[source], name=source)
    path = Path(source)
    if not path.exists():
        raise SchemaError(f"no builtin or file named {source!r}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise SchemaError(f"not valid JSON: {err}") from err
    _expect(isinstance(data, dict), "scenario must be a JSON object")
    return dict(data, name=data.get("name", path.stem))


def validate_scenario(sc: dict):
    _expect("kind" in sc, "scenario needs a kind")
    kind = sc["kind"]
    _expect(kind in KINDS, f"unknown kind {kind!r}")
    allowed = _COMMON_KEYS | _KIND_KEYS[kind]
    unknown = set(sc) - allowed
    _expect(not unknown, f"unknown keys for {kind}: {sorted(unknown)}")
    return kind


def run_scenario(source: str, out_dir=None, prefix=None, budget=None, plot=False, log_base=None):
    """Run one scenario; returns (exit_code, message)."""
    try:
        _expect(
            log_base is None or (log_base > 0 and log_base != 1),
            f"--log-base must be positive and not 1, got {log_base}",
        )
        sc = load_scenario(source)
        kind = validate_scenario(sc)
        prefix = int(prefix if prefix is not None else sc.get("prefix", 8))
        _expect(prefix >= 1, f"prefix (--prefix or the scenario field) must be >= 1, got {prefix}")
        budget = int(budget if budget is not None else sc.get("budget", 10**7))
        csv_text, context = _RUNNERS[kind](sc, prefix, budget)
        if log_base is not None and "estimate" in context:
            scale = math.log(float(log_base))
            extra = ",".join(repr(r.ratio / scale) for r in context["estimate"].rows)
            csv_text += f"# ratios in base {log_base}: {extra}\n"
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{sc['name']}.csv").write_text(csv_text)
            if (plot or sc.get("plot")) and "estimate" in context:
                (out / f"{sc['name']}.svg").write_text(ratio_plot_svg(context["estimate"]))
        run_checks(sc.get("checks"), context)
    except SchemaError as err:
        return 2, f"schema error: {err}"
    except _CONSTRUCTION_ERRORS as err:
        return 2, f"invalid scenario: {err}"
    except BudgetExceededError as err:
        return 3, f"budget exceeded: {err}"
    except CheckFailure as err:
        return 1, f"check failed: {err}"
    return 0, f"{sc['name']}: all checks passed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="amenact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file or builtin")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", default=None, help="directory for CSV/SVG artifacts")
    run_p.add_argument("--prefix", type=int, default=None)
    run_p.add_argument("--budget", type=int, default=None)
    run_p.add_argument("--log-base", type=float, default=None)
    run_p.add_argument("--plot", action="store_true")

    sub.add_parser("list", help="list builtin scenarios")

    desc_p = sub.add_parser("describe", help="describe a scenario kind")
    desc_p.add_argument("what")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted(BUILTINS):
            print(f"{name:28s} {BUILTINS[name]['kind']:18s} {BUILTINS[name]['demonstrates']}")
        return 0
    if args.command == "describe":
        if args.what not in KINDS:
            print(f"unknown kind {args.what!r}; kinds: {', '.join(KINDS)}", file=sys.stderr)
            return 2
        print(f"kind: {args.what}")
        print(f"fields: {sorted(_COMMON_KEYS | _KIND_KEYS[args.what])}")
        examples = [n for n, s in BUILTINS.items() if s["kind"] == args.what]
        if examples:
            print(f"builtin examples: {', '.join(sorted(examples))}")
        return 0
    code, message = run_scenario(
        args.scenario, args.out, args.prefix, args.budget, args.plot, args.log_base
    )
    stream = sys.stdout if code == 0 else sys.stderr
    print(message, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
