"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces each public function in ``TARGETS`` with a
wrapper that records one span per call: (name, start, end, parent span
index, op id).  Spans stay in memory until ``write_spans``.  Self time is
kept online: a span's duration minus the time its child spans cover.

A function is rebound everywhere a caller can look it up: the defining
module, every ``amenact`` module that imported it by name (for example
``cli.h_alg_estimate`` or ``duality.subgroup_trajectory``), and
module-level dicts such as ``cli._RUNNERS``.  ``install`` fails loudly if
an original survives anywhere, so a missed rebinding never reads as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import defaultdict

import amenact

# by module path: the package re-exports a function named ``integral``
abelian, actions, cli, duality, folner, integral, lattices, monoid = (
    importlib.import_module(f"amenact.{name}")
    for name in ("abelian", "actions", "cli", "duality", "folner", "integral", "lattices", "monoid")
)


def _hnf_stats(tracer, name, args, result):
    rows, dim = args[0], args[1]
    tracer.add(name, "rows_in", len(rows))
    tracer.add(name, "rows_out", len(result))
    tracer.peak(name, "dim_max", dim)
    tracer.peak(
        name, "entry_bits_max", max((abs(x).bit_length() for row in result for x in row), default=0)
    )


def _len_of_result(stat):
    def record(tracer, name, args, result):
        tracer.add(name, stat, len(result))

    return record


def _characters_scanned(tracer, name, args, result):
    # |A| of the subgroup (annihilator) or action (cotrajectory) passed first
    tracer.add(name, "characters_scanned", args[0].group.order)


def _gens_out(tracer, name, args, result):
    tracer.add(name, "gens_out", len(result.gens))


def _net_indices(tracer, name, args, result):
    tracer.add(name, "net_indices", len(result.counts))


def _window_dim(tracer, name, args, result):
    tracer.peak(name, "dim_max", len(result.support) * len(result.space.base.factors))


# (span name, owner, attribute, extra stats); several owners may share a name
TARGETS = [
    ("lattices.hnf", lattices, "hnf", _hnf_stats),
    ("lattices.hnf_with_transform", lattices, "hnf_with_transform", None),
    ("lattices.kernel", lattices, "kernel", None),
    ("lattices.intersect", lattices, "intersect", None),
    ("lattices.snf_diagonal", lattices, "snf_diagonal", None),
    ("lattices.express", lattices, "express", None),
    ("abelian.Subgroup.order", abelian.Subgroup, "order", None),
    ("abelian.Subgroup.elements", abelian.Subgroup, "elements", _len_of_result("elements_out")),
    ("abelian.sumset", abelian.AbelianGroup, "sumset", _len_of_result("elements_out")),
    ("abelian.sumset", abelian.FreeZ, "sumset", _len_of_result("elements_out")),
    ("abelian.sumset", abelian.FiniteProduct, "sumset", _len_of_result("elements_out")),
    ("actions.subgroup_trajectory", actions, "subgroup_trajectory", _gens_out),
    ("actions.h_alg_estimate", actions, "h_alg_estimate", _net_indices),
    ("actions.quotient_and_sub_actions", actions, "quotient_and_sub_actions", None),
    ("actions.addition_check", actions, "addition_check", None),
    ("duality.subgroup_lattice", duality, "subgroup_lattice", _len_of_result("subgroups_out")),
    ("duality.annihilator", duality, "annihilator", _characters_scanned),
    ("duality.cotrajectory", duality, "cotrajectory", _characters_scanned),
    ("duality.annihilator_window", duality, "annihilator_window", None),
    ("duality.cotrajectory_window", duality, "cotrajectory_window", _window_dim),
    ("duality.ct_check", duality, "ct_check", None),
    ("duality.bridge_check", duality, "bridge_check", None),
    ("folner.FolnerNet.subset", folner.FolnerNet, "subset", None),
    ("folner.greedy_tiler", folner, "greedy_tiler", None),
    ("folner.check_tiling", folner, "check_tiling", None),
    ("folner.remtil_check", folner, "remtil_check", None),
    ("folner.is_eps_disjoint", folner, "is_eps_disjoint", None),
    ("folner.verify_folner", folner, "verify_folner", None),
    ("folner.semidirect_defect", folner, "semidirect_defect", None),
    ("integral.integral", integral, "integral", None),
    ("integral.fubini_check", integral, "fubini_check", None),
    ("monoid.MSubset.translate", monoid.MSubset, "translate", None),
    ("cli.load_scenario", cli, "load_scenario", None),
    ("cli.validate_scenario", cli, "validate_scenario", None),
    ("cli.run_checks", cli, "run_checks", None),
    ("cli.run_scenario", cli, "run_scenario", None),
] + [("cli.run_kind", cli, fn.__name__, None) for fn in cli._RUNNERS.values()]

# extra stats per span name, each with its unit
EXTRA_STATS = {
    "lattices.hnf": {"rows_in": "count", "dim_max": "count", "entry_bits_max": "bits",
                     "rows_in_per_rank": "ratio"},
    "abelian.Subgroup.elements": {"elements_out": "count"},
    "abelian.sumset": {"elements_out": "count"},
    "actions.subgroup_trajectory": {"gens_out": "count"},
    "actions.h_alg_estimate": {"net_indices": "count"},
    "duality.subgroup_lattice": {"subgroups_out": "count"},
    "duality.annihilator": {"characters_scanned": "count"},
    "duality.cotrajectory": {"characters_scanned": "count"},
    "duality.cotrajectory_window": {"dim_max": "count"},
}


def span_names():
    return list(dict.fromkeys(name for name, _, _, _ in TARGETS))


def _library_modules():
    mods = [amenact]
    for info in pkgutil.iter_modules(amenact.__path__):
        mods.append(importlib.import_module(f"amenact.{info.name}"))
    return mods


def _references(modules):
    """(table, key, value) for every module global and module-level dict entry."""
    for mod in modules:
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            yield namespace, key, value
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    yield value, k, v


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []  # [span index, child seconds] per open span
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.sums = defaultdict(float)
        self.maxes = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def add(self, name, stat, value):
        self.sums[f"{name}.{stat}"] += value

    def peak(self, name, stat, value):
        key = f"{name}.{stat}"
        self.maxes[key] = max(self.maxes[key], value)

    def wrap(self, name, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op]
            frame = [len(spans), 0.0]
            spans.append(span)
            stack.append(frame)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                duration = end - span[1]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if extra is not None:
                extra(self, name, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, callers=()):
        """Wrap every target where the library, or one of the ``callers``
        modules, looks it up; raise if a reference is missed."""
        modules = _library_modules() + list(callers)
        originals = []
        for name, owner, attr, extra in TARGETS:
            fn = vars(owner)[attr]
            wrapper = self.wrap(name, fn, extra)
            originals.append(fn)
            setattr(owner, attr, wrapper)
            for table, key, value in _references(modules):
                if value is fn:
                    table[key] = wrapper
        missed = [
            key
            for _, key, value in _references(modules)
            if any(value is fn for fn in originals)
        ]
        if missed:
            raise RuntimeError(f"tracing left unwrapped references: {missed}")

    # -- reporting -------------------------------------------------------------

    def per_layer(self, passes):
        """Every per-layer metric, as value per traced pass."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
            for stat, unit in EXTRA_STATS.get(name, {}).items():
                key = f"{name}.{stat}"
                if stat == "rows_in_per_rank":
                    rank = self.sums[f"{name}.rows_out"]
                    value = self.sums[f"{name}.rows_in"] / rank if rank else 0.0
                elif stat.endswith("_max"):
                    value = self.maxes[key]
                else:
                    value = self.sums[key] / passes
                out[key] = (value, unit)
        return out

    def write_spans(self, path, op_keys):
        """Spans as [name, start, end, parent span index, op id]; ``ops``
        maps an op id to its golden key."""
        with open(path, "w") as fh:
            json.dump({"ops": op_keys, "spans": self.spans}, fh)
