"""Batch front door: scenario files in, exact CSV tables (and plots) out.

Usage:
    amenact run <file-or-builtin> [--out DIR] [--prefix N] [--budget M]
                [--log-base B] [--plot]
    amenact list
    amenact describe <kind>

Exit codes: 0 all checks pass; 1 a check failed; 2 schema error, bad option,
construction error or an output directory that cannot be written; 3 budget
exceeded.  Scenario files are JSON, checked in full against one schema
table (``KINDS``, ``SPECS``, ``CHECKS``) before anything runs: unknown keys
are rejected at every level, ``checks`` included, and a schema error names
the JSON path at fault, such as ``monoid.dim`` or ``checks[0].value``.
Validation is one pass over the scenario's JSON nodes: each condition is
tested before any text is built, so a valid scenario formats no message
and renders no path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable, NamedTuple

from . import lattices
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
from .duality import _subgroup_gens, annihilator, bridge_check
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
    CanonicalNet,
    _reciprocal_gap_ok,
    box_net,
    check_tiling,
    greedy_tiler,
    product_net,
    semidirect_defect,
    verify_folner,
)
from .integral import card, card_pi, constant, fubini_check, integral
from .monoid import (
    BoxSubset,
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
# the scenario schema, read by validation, the runners and ``describe``
#
# A type is a Scalar, Items or [T] (Items(T)), a Spec or OneOf, or a name:
# a SPECS entry, or a type that the scenario's group defines (Spec.env).


class Scalar(NamedTuple):
    what: str
    ok: Callable


class Items(NamedTuple):
    item: object
    lo: int = 0
    hi: int = None


class Spec(NamedTuple):
    """A JSON object: field -> type ("field?" is optional).  ``fn`` builds the
    library object as fn(*context, spec), or runs a check as fn(check, run
    context); ``env`` names the types that the fields after it may use."""

    fields: dict
    fn: Callable = None
    env: dict = {}


class OneOf(NamedTuple):
    """Variants told apart by the ``tag`` field, or (tag None) by their only key."""

    tag: str
    variants: dict


def _number(lo=None, what="an integer", types=(int,)):
    def ok(v):
        return type(v) in types and -math.inf < v < math.inf and (lo is None or v >= lo)

    return Scalar(what if lo is None else f"{what} >= {lo}", ok)


def _is_ratio(v):
    try:
        Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        return False
    return type(v) is not bool


INT, NAT, POS, PREFIX = _number(), _number(0), _number(1), _number(2)
NUM, NONNEG = _number(None, "a number", (int, float)), _number(0, "a number", (int, float))
TEXT = Scalar("a string", lambda v: type(v) is str)
FLAG = Scalar("true or false", lambda v: type(v) is bool)
RATIO = Scalar("a number or a 'p/q' string", _is_ratio)

# element shapes by group family; a direct-sum element is a list of [index, value]
_FLAT = {"element": [INT]}
_DIRECT_SUM = {"element": [Items([INT], 2, 2)], "base_element": [INT], "index_vector": [INT]}
_ENDOS = {
    "identity": Spec({}, lambda g, s: identity_endo(g)),
    "scalar": Spec({"a": INT}, lambda g, s: scalar_endo(g, s["a"])),
    "matrix": Spec({"rows": [[INT]]}, lambda g, s: MatrixEndo(g, tuple(map(tuple, s["rows"])))),
}
# seed forms: a finite set, or a subgroup (finitely generated, or coordinatewise B0^(I))
_SET_SEED = {
    "set": Spec({"set": Items("element", 1)}, lambda g, s: FiniteSubset(g, frozenset(map(g.element, s["set"])))),
}
_SUBGROUP_SEEDS = {
    "subgroup_basis": Spec(
        {"subgroup_basis": ["element"]},
        lambda g, s: Subgroup.generated(g, [g.element(e) for e in s["subgroup_basis"]]),
    ),
    "percoord_basis": Spec(
        {"percoord_basis": ["base_element"]},
        lambda g, s: Subgroup.percoord(g, Subgroup.generated(g.base, [tuple(e) for e in s["percoord_basis"]])),
    ),
}
SPECS = {
    "monoid": OneOf("family", {
        "N^d": Spec({"dim": NAT}, lambda s: FreeCommutative(s["dim"])),
        "Z^d": Spec({"dim": NAT}, lambda s: FreeAbelian(s["dim"])),
        "finite": Spec({"factors": [POS]}, lambda s: FiniteAbelianMonoid(tuple(s["factors"]))),
        "product": Spec(
            {"parts": Items("monoid", 1)}, lambda s: ProductMonoid(tuple(map(parse_monoid, s["parts"])))
        ),
    }),
    "group": OneOf("family", {
        "free": Spec({"rank": NAT}, lambda s: FreeZ(s["rank"]), _FLAT),
        "finite": Spec({"factors": [POS]}, lambda s: FiniteProduct(tuple(s["factors"])), _FLAT),
        "direct-sum": Spec(
            {"base": [POS], "index": "monoid"},
            lambda s: DirectSum(FiniteProduct(tuple(s["base"])), parse_monoid(s["index"])),
            _DIRECT_SUM,
        ),
    }),
    "base_endo": OneOf("kind", _ENDOS),
    "endo": OneOf("kind", {**_ENDOS, "shift": Spec(
        {"by": "index_vector", "base?": "base_endo"},
        lambda g, s: shift_endo(g, s["by"], _build("base_endo", g.base, s["base"]) if "base" in s else None),
    )}),
    "action": Spec(
        {"generators": ["endo"]}, lambda m, g, s: Action(m, g, [_build("endo", g, e) for e in s["generators"]])
    ),
    "set_seed": OneOf(None, _SET_SEED),
    "subgroup": OneOf(None, _SUBGROUP_SEEDS),
    "seed": OneOf(None, {**_SET_SEED, **_SUBGROUP_SEEDS}),
    "hom": OneOf("kind", {
        "project": Spec({"coords": [NAT]}, lambda m, s: projection_hom(m, tuple(s["coords"]))),
        "mod": Spec({"factors": [POS]}, lambda m, s: mod_hom(m, tuple(s["factors"]))),
    }),
    "net": OneOf("family", {
        "box": Spec({}, lambda m, s: box_net(m)),
        "product": Spec({}, lambda m, s: _product_net(m)),
    }),
    "function": OneOf("kind", {
        "card": Spec({}, lambda m, s: card(m)),
        "constant": Spec({"a": NONNEG}, lambda m, s: constant(m, float(s["a"]))),
        "card_pi": Spec({"hom": "hom"}, lambda m, s: card_pi(_build("hom", m, s["hom"]))),
    }),
    "request": Spec({"test": [[INT]], "n": POS}),
}


def _near(check, named):
    for label, x in named:
        if abs(x - check["value"]) > check.get("tol", 1e-9):
            raise CheckFailure(f"{label} {x!r} differs from {check['value']!r}")


def _below(check, named, rational=False):
    bound = Fraction(check["value"]).limit_denominator(10**9) if rational else check["value"]
    for label, x in named:
        if not x < bound:
            raise CheckFailure(f"{label} {x!r} is not below {check['value']!r}")


def _holds(named):
    for label, ok in named:
        if not ok:
            raise CheckFailure(label)


def _check_all_at_least(check, context):
    bound = Fraction(check["value"]).limit_denominator(10**9)
    for row in context["values"]:
        if not row[-1] >= bound:
            raise CheckFailure(f"value {row} fell below {check['value']}")


def _check_counts_power(check, context):
    base, scale, offset = check["base"], check.get("scale", 1), check.get("offset", 0)
    for n, count in enumerate(context["counts"], start=1):
        want = scale * base ** (n + offset)
        if count != want:
            raise CheckFailure(f"count at index {n} is {count}, expected {want}")


def _check_limit(check, context):
    """Every side of the run certified the step ratio a: the trajectory of
    an entropy run, and both sides of a bridge."""
    limits = context["limits"] if "limits" in context else {"trajectory": context["limit"]}
    for side, limit in limits.items():
        if limit is None:
            raise CheckFailure(f"the {side} has no certified step ratio")
        if limit[0] != check["a"]:
            raise CheckFailure(f"the {side} certified step ratio {limit[0]}, expected {check['a']}")


# check type -> (the kinds whose run context it reads, Spec(its fields, its test))
_RATIOS = ("entropy", "integral")
_VALUE, _TOL = {"value": NUM}, {"value": NUM, "tol?": NONNEG}
CHECKS = {
    "tail": (_RATIOS, Spec(_TOL, lambda c, x: _near(c, [("tail", x["estimate"].tail)]))),
    "tail_below": (_RATIOS, Spec(_VALUE, lambda c, x: _below(c, [("tail", x["estimate"].tail)]))),
    "every_ratio": (_RATIOS, Spec(
        _TOL, lambda c, x: _near(c, [(f"row {r.index}: ratio", r.ratio) for r in x["estimate"].rows]))),
    "counts_power": (("entropy",), Spec({"base": INT, "scale?": INT, "offset?": INT}, _check_counts_power)),
    "limit": (("entropy", "bridge"), Spec({"a": POS}, _check_limit)),
    "all_at_least": (("semidirect-defect",), Spec(_VALUE, _check_all_at_least)),
    "all_below": (("semidirect-defect",), Spec(
        _VALUE, lambda c, x: _below(c, [(f"value {row}", row[-1]) for row in x["values"]], rational=True))),
    "difference_below": (("fubini",), Spec(
        _VALUE, lambda c, x: _below(c, [("two-sided difference", x["report"].difference)]))),
    "exact_product": (("addition",), Spec(
        {}, lambda c, x: _holds([("per-index order identity failed", x["report"].exact_at_every_index)]))),
    "residual_below": (("addition",), Spec(_VALUE, lambda c, x: _below(c, [("residual", x["report"].residual)]))),
    "exact_rows": (("bridge",), Spec(
        {}, lambda c, x: _holds([("per-index bridge identity failed", x["report"].exact_at_every_index)]))),
    "tails": (("bridge",), Spec(
        _TOL, lambda c, x: _near(c, [("tail", x["report"].algebraic_tail), ("tail", x["report"].topological_tail)]))),
    "witness_valid": (("tiling",), Spec({}, lambda c, x: _holds([(x.get("why", "witness invalid"), x["ok"])]))),
    "precision_met": (("canonical-net",), Spec(
        {}, lambda c, x: _holds((f"precision missed at {row}", row[-1]) for row in x["values"]))),
    "all_hold": (("duality-props",), Spec({}, lambda c, x: _holds((f"violation at {row}", row[-1]) for row in x["values"]))),
    "tail_defect_below": (("folner-verify",), Spec(
        _VALUE, lambda c, x: _below(c, [("tail defect", x["report"].tail_max())], rational=True))),
}

# kind -> its own fields; a group comes before the fields that use its types
_COMMON = {"name?": TEXT, "demonstrates?": TEXT, "prefix?": POS, "budget?": NAT, "plot?": FLAG}
_ACTION = {"monoid": "monoid", "group": "group", "action": "action", "seed": "seed", "net": "net"}
KINDS = {
    "folner-verify": {"monoid": "monoid", "test": [[INT]], "net": "net", "prefix?": PREFIX},
    "canonical-net": {"monoid": "monoid", "requests": ["request"]},
    "tiling": {"dim": POS, "region": POS, "tiles": [POS], "epsilon": RATIO},
    "semidirect-defect": {"element": Items(INT, 2, 3), "pairs": [Items(POS, 2, 2)]},
    "integral": {"monoid": "monoid", "function": "function", "net": "net", "prefix?": PREFIX},
    "fubini": {"monoid": "monoid", "target": "group", "action": "action", "seed": "set_seed", "hom": "hom",
               "prefix?": PREFIX, "c_prefix?": PREFIX, "n_prefix?": PREFIX},
    "entropy": _ACTION,
    "addition": {"monoid": "monoid", "group": "group", "action": "action", "subgroup": "subgroup", "net": "net"},
    "bridge": {**_ACTION, "seed": "subgroup"},
    "duality-props": {"groups": [[POS]]},
}
SCENARIO = OneOf("kind", {
    kind: Spec({**_COMMON, **fields, "checks?": [
        OneOf("type", {name: spec for name, (kinds, spec) in CHECKS.items() if kind in kinds})
    ]})
    for kind, fields in KINDS.items()
})


def _join(path, key):
    return f"{path}.{key}" if path else key


def _render(path):
    """The JSON path that the link chain ``path`` names, such as
    ``checks[0].value``: None is the scenario itself, (parent, key) a field
    of an object and (parent, i) entry i of a list."""
    if path is None:
        return ""
    parent, key = path
    head = _render(parent)
    return f"{head}[{key}]" if type(key) is int else _join(head, key)


def _fail(path, problem):
    raise SchemaError(f"{_render(path) or 'scenario'} {problem}")


# id(spec) -> (spec, its field table); holding the spec keeps its id its own
_TABLES = {}


def _field_table(spec):
    """field -> (type, optional) for ``spec``, parsed once per process."""
    entry = _TABLES.get(id(spec))
    if entry is None:
        entry = _TABLES[id(spec)] = (spec, _parse_fields(spec))
    return entry[1]


def _parse_fields(spec):
    return {k.rstrip("?"): (t, k.endswith("?")) for k, t in spec.fields.items()}


def _variant(typ, value):
    """The Spec that the object ``value`` selects, or None."""
    if isinstance(typ, Spec):
        return typ
    if typ.tag is None:
        tag = next(iter(value)) if len(value) == 1 else None
    else:
        tag = value.get(typ.tag)
    return typ.variants.get(tag) if isinstance(tag, str) else None


def _shown(value, limit=60):
    """repr(value), cut after ``limit`` characters and marked by '...'."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _walk(value, typ, path, env):
    """Check ``value`` against ``typ``; a SchemaError names the JSON path.

    Each condition is tested first: the message, and the path as text, are
    built only on the branch that raises.  ``path`` is a chain of
    (parent, key) links, rendered by ``_render``, and ``env`` gathers the
    types that the specs met so far define."""
    if isinstance(typ, str):
        if typ in SPECS:
            typ = SPECS[typ]
        elif typ in env:
            typ = env[typ]
        else:
            _fail(path, "is only defined on a direct-sum group")
    if isinstance(typ, Scalar):
        if not typ.ok(value):
            _fail(path, f"must be {typ.what}, got {_shown(value)}")
    elif isinstance(typ, (Spec, OneOf)):
        if not isinstance(value, dict):
            _fail(path, "must be an object")
        spec = _variant(typ, value)
        tag = typ.tag if isinstance(typ, OneOf) else None
        if spec is None:
            raise SchemaError(
                f"{_render((path, tag))} must be one of {sorted(typ.variants)}, got {_shown(value.get(tag))}"
                if tag else f"{_render(path)} needs exactly one of the keys {sorted(typ.variants)}"
            )
        fields = _field_table(spec)
        for key in value:
            if key not in fields and key != tag:
                where = _join(_render(path), key)
                raise SchemaError(f"{where or 'scenario'} is not a field here; fields: {sorted(fields)}")
        if spec.env:
            env.update(spec.env)
        for key, (t, optional) in fields.items():
            if key in value:
                _walk(value[key], t, (path, key), env)
            elif not optional:
                _fail((path, key), "is required")
    else:
        item, lo, hi = Items(*typ) if isinstance(typ, list) else typ
        if not (isinstance(value, list) and lo <= len(value) and (hi is None or len(value) <= hi)):
            if hi is None:
                size = f" of at least {lo}" if lo else ""
            else:
                size = f" of {lo}" if lo == hi else f" of {lo} to {hi}"
            _fail(path, f"must be a list{size}")
        for i, entry in enumerate(value):
            _walk(entry, item, (path, i), env)


def _build(name, *args):
    """The library object for the checked spec ``args[-1]`` of SPECS[name],
    built over the objects ``args[:-1]``."""
    return _variant(SPECS[name], args[-1]).fn(*args)


parse_monoid = partial(_build, "monoid")
parse_group = partial(_build, "group")
parse_action = partial(_build, "action")
parse_seed = partial(_build, "seed")
parse_net = partial(_build, "net")


def _product_net(monoid):
    if not (isinstance(monoid, ProductMonoid) and len(monoid.parts) == 2):
        raise MonoidMismatchError("product nets need a product of two monoids")
    return product_net(box_net(monoid.parts[0]), box_net(monoid.parts[1]), monoid)


def run_checks(checks, context):
    for check in checks or []:
        _, spec = CHECKS[check["type"]]
        spec.fn(check, context)


# ---------------------------------------------------------------------------
# kind runners: each returns (csv_text, context)


def _action_parts(sc, seed_field="seed"):
    monoid = parse_monoid(sc["monoid"])
    group = parse_group(sc["group"])
    action = parse_action(monoid, group, sc["action"])
    return action, parse_seed(group, sc[seed_field]), parse_net(monoid, sc["net"])


def _run_entropy(sc, prefix, budget):
    action, seed, net = _action_parts(sc)
    est = h_alg_estimate(action, seed, net, prefix, budget)
    return est.to_csv(), {"estimate": est.estimate, "counts": est.counts, "limit": est.limit}


def _run_integral(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    f = _build("function", monoid, sc["function"])
    net = parse_net(monoid, sc["net"])
    est = integral(f, net, prefix, budget)
    return est.to_csv(), {"estimate": est}


def _run_fubini(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    group = parse_group(sc["target"])
    action = parse_action(monoid, group, sc["action"])
    seed = parse_seed(group, sc["seed"])
    f = trajectory_function(action, seed, budget)
    pi = _build("hom", monoid, sc["hom"])
    sigma = find_good_section(pi)
    s_net = _product_net(monoid)
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
    action, b, net = _action_parts(sc, "subgroup")
    sub, quo, _ = quotient_and_sub_actions(action, b)
    report = addition_check(
        action, b, net, prefix,
        _default_generator_subgroup(action.group),
        _default_generator_subgroup(sub.group),
        _default_generator_subgroup(quo.group),
        budget,
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
    raise GroupMismatchError("no default generator subgroup for this group")


def _run_bridge(sc, prefix, budget):
    action, seed, net = _action_parts(sc)
    report = bridge_check(action, seed, net, prefix, budget)
    limits = {"trajectory": report.trajectory_limit, "cotrajectory": report.cotrajectory_limit}
    return report.to_csv(), {"report": report, "limits": limits}


def _run_semidirect(sc, prefix, budget):
    element = tuple(sc["element"])
    values = []
    rows = []
    for n, m in sc["pairs"]:
        delta = semidirect_defect(n, m, element, budget)
        values.append((n, m, delta))
        rows.append([n, m, repr(float(delta))])
    return csv_table("n,m,defect", rows, "\n"), {"values": values}


def _run_tiling(sc, prefix, budget):
    cells = sc["region"] ** sc["dim"]
    if cells > budget:
        raise BudgetExceededError(f"tiling region has {cells} cells, over the budget of {budget}")
    monoid = FreeAbelian(sc["dim"])

    def box(side):
        return BoxSubset(monoid, (0,) * sc["dim"], (side - 1,) * sc["dim"])

    region, tiles = box(sc["region"]), [box(side) for side in sc["tiles"]]
    eps = Fraction(sc["epsilon"])
    witness = greedy_tiler(region, tiles, eps, validate=False)
    report = check_tiling(region, witness, eps)
    if not report.ok:
        return "status\nno-witness\n", {"ok": False, "why": "greedy pass missed the bound"}
    rem = _reciprocal_gap_ok(report)
    header = "d,u,b,disjoint,within,inside,covers,mass,reciprocal_gap_ok"
    row = [report.d, report.u, report.b, report.disjoint, report.within,
           report.inside, report.covers, report.mass, rem]
    return csv_table(header, [row], "\n"), {"ok": rem}


def _run_folner_verify(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    net = parse_net(monoid, sc["net"])
    test = MSubset.of(monoid, [tuple(e) for e in sc["test"]])
    report = verify_folner(net, test, prefix, budget)
    return report.to_csv(), {"report": report}


def _run_canonical(sc, prefix, budget):
    monoid = parse_monoid(sc["monoid"])
    net = CanonicalNet(monoid, budget)
    values = []
    for req in sc["requests"]:
        e = MSubset.of(monoid, [tuple(x) for x in req["test"]])
        n = req["n"]
        f = net.at(e, n)
        worst = max((sym_diff_ratio(f, s) for s in e), default=Fraction(0))
        values.append((n, len(f), worst, worst <= Fraction(1, n)))
    rows = [[n, size, repr(float(worst)), met] for n, size, worst, met in values]
    return csv_table("n,box_size,max_defect,precision_met", rows, "\n"), {"values": values}


def _run_duality_props(sc, prefix, budget):
    values = []
    for factors in sc["groups"]:
        g = FiniteProduct(tuple(factors))
        k = len(factors)
        # each listed subgroup keeps the Hermite form it is listed as
        subs = [Subgroup._with_basis(g, form) for form in _subgroup_gens(g)]
        hermite = [b._flat()[1] for b in subs]
        # Hermite basis -> annihilator: one per listed subgroup, and one for
        # any basis met that the listing lacks
        perps = {tuple(map(tuple, h)): annihilator(b) for b, h in zip(subs, hermite)}

        def perp(basis):
            key = tuple(map(tuple, basis))
            if key not in perps:
                perps[key] = annihilator(Subgroup._with_basis(g, basis))
            return perps[key]

        order_law = all(b.order() * perp(h).order() == g.order for b, h in zip(subs, hermite))
        double = all(perp(perp(h)._flat()[1]) == b for b, h in zip(subs, hermite))
        # (B1 + B2)-perp against B1-perp meet B2-perp, as canonical HNFs: the
        # join's basis is the Hermite form of the two bases stacked.  Join and
        # meet are symmetric, so each unordered pair {i, j} of the first 12
        # runs once (236 pairs on duality-props-small); i < j goes in listed
        # order when i + j is even and swapped when odd, so both argument
        # orders of hnf and intersect still run
        pairs = [(h, perp(h)._flat()[1]) for h in hermite[:12]]
        sum_law = all(
            perp(lattices.hnf(h1 + h2, k))._flat()[1] == lattices.intersect(p1, p2, k)
            for i, j in combinations_with_replacement(range(len(pairs)), 2)
            for (h1, p1), (h2, p2) in [(pairs[i], pairs[j]) if (i + j) % 2 == 0 else (pairs[j], pairs[i])]
        )
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
    try:
        if not path.exists():
            raise SchemaError(f"no builtin or file named {source!r}")
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise SchemaError(f"not valid JSON: {err}") from err
    except OSError as err:
        raise SchemaError(f"cannot read {source!r}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise SchemaError(f"{source!r} is not UTF-8 text: {err}") from err
    except RecursionError as err:
        raise SchemaError(f"{source!r} nests too deeply to parse as JSON") from err
    if not isinstance(data, dict):
        raise SchemaError("scenario must be a JSON object")
    return dict(data, name=data.get("name", path.stem))


def validate_scenario(sc: dict):
    """Check the whole scenario, its checks included; returns its kind."""
    _walk(sc, SCENARIO, None, {})
    return sc["kind"]


def run_scenario(source: str, out_dir=None, prefix=None, budget=None, plot=False, log_base=None):
    """Run one scenario; returns (exit_code, message)."""
    try:
        if not (log_base is None or (math.isfinite(log_base) and log_base > 0 and log_base != 1)):
            raise SchemaError(f"--log-base must be finite, positive and not 1, got {log_base}")
        sc = load_scenario(source)
        # an option replaces its scenario field and is checked as that field
        sc.update({k: v for k, v in (("prefix", prefix), ("budget", budget)) if v is not None})
        kind = validate_scenario(sc)
        csv_text, context = _RUNNERS[kind](sc, sc.get("prefix", 8), sc.get("budget", 10**7))
        if log_base is not None and "estimate" in context:
            scale = math.log(float(log_base))
            extra = ",".join(repr(r.ratio / scale) for r in context["estimate"].rows)
            csv_text += f"# ratios in base {log_base}: {extra}\n"
        if out_dir is not None:
            out = Path(out_dir)
            try:
                out.mkdir(parents=True, exist_ok=True)
                (out / f"{sc['name']}.csv").write_text(csv_text)
                if (plot or sc.get("plot")) and "estimate" in context:
                    (out / f"{sc['name']}.svg").write_text(ratio_plot_svg(context["estimate"]))
            except OSError as err:
                return 2, f"cannot write {err.filename or out}: {err.strerror or err}"
        run_checks(sc.get("checks"), context)
    except SchemaError as err:
        return 2, f"schema error: {err}"
    except _CONSTRUCTION_ERRORS as err:
        return 2, f"invalid scenario: {err}"
    except BudgetExceededError as err:
        where = [f"ran out at {err.completed}"] if err.completed is not None else []
        where += [f"net index {err.index}"] if err.index is not None else []
        return 3, f"budget exceeded: {err}" + (f" ({', '.join(where)})" if where else "")
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
        fields = SCENARIO.variants[args.what].fields
        print(f"fields: {sorted(['kind', *(key.rstrip('?') for key in fields)])}")
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
