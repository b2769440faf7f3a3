"""The scenario schema: a malformed scenario exits 2 naming the JSON path at
fault before any runner starts, and no input ends in a traceback."""

import copy
import hashlib
from collections import Counter
import json
import os
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from amenact import cli
from amenact.cli import BUILTINS, main, run_scenario
from amenact.errors import SchemaError

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# corpus file -> its full message; a schema error names the JSON path first
SCHEMA_ERRORS = {
    "addition-set-subgroup.json":
        "schema error: subgroup needs exactly one of the keys ['percoord_basis', 'subgroup_basis']",
    "bridge-set-seed.json":
        "schema error: seed needs exactly one of the keys ['percoord_basis', 'subgroup_basis']",
    "check-tol-string.json":
        "schema error: checks[1].tol must be a number >= 0, got '1e-9'",
    "check-unknown-key.json":
        "schema error: checks[0].bogus is not a field here; fields: ['value']",
    "check-value-string.json":
        "schema error: checks[0].value must be a number, got '0.69'",
    "check-wrong-kind.json":
        "schema error: checks[0].type must be one of ['counts_power', 'every_ratio', 'limit', 'tail', 'tail_below'], got 'exact_product'",
    "constant-without-a.json":
        "schema error: function.a is required",
    "dim-not-integer.json":
        "schema error: monoid.dim must be an integer >= 0, got 'x'",
    "direct-sum-entry-not-pair.json":
        "schema error: seed.subgroup_basis[0][0] must be a list of 2",
    "direct-sum-flat-element.json":
        "schema error: seed.subgroup_basis[0][0] must be a list of 2",
    "duality-zero-factor.json":
        "schema error: groups[1][1] must be an integer >= 1, got 0",
    "folner-verify-prefix-one.json":
        "schema error: prefix must be an integer >= 2, got 1",
    "fubini-c-prefix-one.json":
        "schema error: c_prefix must be an integer >= 2, got 1",
    "fubini-n-prefix-one.json":
        "schema error: n_prefix must be an integer >= 2, got 1",
    "fubini-subgroup-seed.json":
        "schema error: seed needs exactly one of the keys ['set']",
    "group-without-index.json":
        "schema error: group.index is required",
    "integral-prefix-one.json":
        "schema error: prefix must be an integer >= 2, got 1",
    "limit-a-zero.json":
        "schema error: checks[1].a must be an integer >= 1, got 0",
    "monoid-without-dim.json":
        "schema error: monoid.dim is required",
    "seed-rng-removed.json":
        "schema error: seed_rng is not a field here; fields: ['budget', 'checks', 'demonstrates', 'groups', 'name', 'plot', 'prefix']",
    "seed-set-empty.json":
        "schema error: seed.set must be a list of at least 1",
    "semidirect-element-short.json":
        "schema error: element must be a list of 2 to 3",
    "semidirect-short-pair.json":
        "schema error: pairs[1] must be a list of 2",
    "shift-on-flat-group.json":
        "schema error: action.generators[0].by is only defined on a direct-sum group",
    "tail-without-value.json":
        "schema error: checks[0].value is required",
    "tiling-epsilon-not-ratio.json":
        "schema error: epsilon must be a number or a 'p/q' string, got 'x'",
}
INVALID_SCENARIOS = {
    "addition-fg-direct-sum-quotient.json":
        "invalid scenario: direct-sum quotients are supported along coordinatewise subgroups only",
    "addition-not-invariant.json":
        "invalid scenario: generator image escapes the subgroup",
    "bridge-shift-with-base.json":
        "invalid scenario: bridge on direct sums needs pure shifts",
    "generator-count.json":
        "invalid scenario: need 1 generator endomorphisms, got 2",
    "group-action-not-invertible.json":
        "invalid scenario: group actions need invertible generator images",
    "matrix-shape.json":
        "invalid scenario: matrix shape does not match the group",
}
CORPORA = sorted((TESTS / "schema_errors").glob("*.json")) + sorted(
    (TESTS / "invalid_scenarios").glob("*.json")
)


_DELETE = object()
_SWEEP_VALUES = ("x", -1, [], {}, None, 1.5)

# hand-made scenarios at the edges of path rendering -> their full message
EDGE_CASES = [
    ([], "scenario must be an object"),
    ({}, "kind must be one of ['addition', 'bridge', 'canonical-net', 'duality-props', 'entropy',"
         " 'folner-verify', 'fubini', 'integral', 'semidirect-defect', 'tiling'], got None"),
    ({"kind": "duality-props", "groups": [[2]], "": 0},
     "scenario is not a field here; fields: ['budget', 'checks', 'demonstrates', 'groups', 'name', 'plot', 'prefix']"),
    ({"kind": "duality-props", "groups": [[2]], "checks": [{"type": "all_hold", "": 0}]},
     "checks[0]. is not a field here; fields: []"),
    ({"kind": "duality-props", "groups": [[2], "x"]}, "groups[1] must be a list"),
    ({"kind": "entropy", "monoid": {"family": "N^d", "dim": 1}, "group": {"family": "free", "rank": 1},
      "action": {"generators": []}, "seed": {"set": [[0]], "subgroup_basis": []}, "net": {"family": "box"}},
     "seed needs exactly one of the keys ['percoord_basis', 'set', 'subgroup_basis']"),
]


def _paths(obj, path=()):
    """Every key path into a builtin; lists contribute their first two entries."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj[:2])
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutated(sc, path, value):
    """A copy of ``sc`` with the entry at ``path`` set to ``value`` or deleted."""
    sc = copy.deepcopy(sc)
    *head, last = path
    parent = reduce(getitem, head, sc)
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = value
    return sc


def _validation_message(sc):
    try:
        cli.validate_scenario(sc)
    except SchemaError as err:
        return f"schema error: {err}"
    return "valid"


def _sweep():
    """One line per mutation of every builtin: what was put where, and what
    validation alone says of the result."""
    for name in sorted(BUILTINS):
        for path in _paths(BUILTINS[name]):
            values = _SWEEP_VALUES + ((_DELETE,) if isinstance(path[-1], str) else ())
            for value in values:
                message = _validation_message(_mutated(BUILTINS[name], path, value))
                shown = "<deleted>" if value is _DELETE else repr(value)
                yield f"{name}\t{path!r}\t{shown}\t{message}"


def _run(sc, directory, **options):
    path = directory / "scenario.json"
    path.write_text(json.dumps(sc))
    return run_scenario(str(path), **options)


@pytest.fixture
def no_runner(monkeypatch):
    def refuse(sc, prefix, budget):
        raise AssertionError("a runner started")

    for kind in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, kind, refuse)


def test_every_schema_error_file_is_listed():
    assert sorted(p.name for p in (TESTS / "schema_errors").glob("*.json")) == sorted(SCHEMA_ERRORS)


@pytest.mark.parametrize("name", sorted(SCHEMA_ERRORS))
def test_schema_error_names_the_path_before_any_runner(tmp_path, no_runner, name):
    code, message = run_scenario(str(TESTS / "schema_errors" / name), out_dir=tmp_path)
    assert code == 2, message
    assert message == SCHEMA_ERRORS[name]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", sorted(INVALID_SCENARIOS))
def test_invalid_scenario_message_is_pinned(name):
    assert run_scenario(str(TESTS / "invalid_scenarios" / name)) == (2, INVALID_SCENARIOS[name])


def test_every_invalid_scenario_file_is_listed():
    assert sorted(p.name for p in (TESTS / "invalid_scenarios").glob("*.json")) == sorted(INVALID_SCENARIOS)


@pytest.mark.parametrize("index", range(len(EDGE_CASES)))
def test_edge_case_message_is_pinned(index):
    sc, message = EDGE_CASES[index]
    assert _validation_message(sc) == f"schema error: {message}"


def test_echoed_values_are_cut_after_sixty_characters():
    """A schema error echoes the value at fault, cut after 60 characters,
    however deep or long the value is."""
    deep = reduce(lambda v, _: [v], range(500), 0)
    wide = list(range(10**5))
    cut = repr(wide)[:60] + "..."
    assert len(cut) == 63
    cases = [
        ({"kind": "duality-props", "groups": [[2], [deep]]},
         "groups[1][0] must be an integer >= 1, got " + "[" * 60 + "..."),
        ({"kind": "duality-props", "groups": [[2]], "prefix": wide},
         f"prefix must be an integer >= 1, got {cut}"),
        ({"kind": wide}, "kind must be one of ['addition', 'bridge', 'canonical-net', 'duality-props',"
                         " 'entropy', 'folner-verify', 'fubini', 'integral', 'semidirect-defect',"
                         f" 'tiling'], got {cut}"),
    ]
    for sc, message in cases:
        assert _validation_message(sc) == f"schema error: {message}"


def test_mutation_sweep_messages_are_pinned():
    """Every builtin with each entry replaced or deleted, validated: the
    messages hash to a pinned digest."""
    lines = list(_sweep())
    errors = sum(not line.endswith("\tvalid") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), errors, digest) == (
        3219, 2957, "68477685a0d6b3d574c299c4241fe352bb54d32652b8f93edc6bdd3f61acea62"
    )


def test_valid_scenarios_build_no_message_and_parse_each_field_table_once(monkeypatch):
    """Validating a valid scenario renders no path and lists no fields or
    variants (``sorted`` is only called to word a message), and reads each
    Spec's field table from one parse per process."""
    from test_actions import FIBONACCI_SCENARIO, INFINITE_SEED_SCENARIOS

    def refuse(*args):
        raise AssertionError("a message was built for a valid scenario")

    parses = Counter()
    parse = cli._parse_fields

    def counted(spec):
        parses[id(spec)] += 1
        return parse(spec)

    monkeypatch.setattr(cli, "_render", refuse)
    monkeypatch.setattr(cli, "sorted", refuse, raising=False)
    monkeypatch.setattr(cli, "_TABLES", {})
    monkeypatch.setattr(cli, "_parse_fields", counted)
    files = sorted((TESTS / "scenarios").glob("*.json")) + sorted((TESTS / "invalid_scenarios").glob("*.json"))
    scenarios = [cli.load_scenario(name) for name in sorted(BUILTINS)]
    scenarios += [cli.load_scenario(str(path)) for path in files]
    scenarios += [FIBONACCI_SCENARIO, *INFINITE_SEED_SCENARIOS.values()]
    for _ in range(2):
        for sc in scenarios:
            cli.validate_scenario(sc)
    assert parses and max(parses.values()) == 1


@pytest.mark.parametrize("name", ["card-pi-half", "fubini-product", "folner-boxes-Z"])
def test_prefix_option_below_two_is_a_schema_error(tmp_path, no_runner, name):
    code, message = run_scenario(name, out_dir=tmp_path, prefix=1)
    assert code == 2
    assert message.startswith("schema error: prefix must be an integer >= 2"), message
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("path", CORPORA, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_cli_process_exits_two_without_traceback(path):
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "amenact.cli", "run", str(path)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(("schema error: ", "invalid scenario: ")), proc.stderr


def test_projection_outside_the_monoid_is_a_construction_error(tmp_path):
    sc = copy.deepcopy(BUILTINS["card-pi-half"])
    sc["function"]["hom"]["coords"] = [2]
    code, message = _run(sc, tmp_path)
    assert code == 2 and message.startswith("invalid scenario: "), message


def test_describe_lists_the_schema_fields(capsys):
    assert main(["describe", "addition"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "fields: ['action', 'budget', 'checks', 'demonstrates', 'group', 'kind',"
        " 'monoid', 'name', 'net', 'plot', 'prefix', 'subgroup']"
    )


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_mutated_builtins_end_in_an_exit_code(tmp_path, name):
    # prefix is overridden to keep the runs short; demonstrates is free text
    for path in _paths(BUILTINS[name]):
        if path[0] in ("prefix", "demonstrates"):
            continue
        for value in ("x", -1, [], {}, None) + ((_DELETE,) if isinstance(path[-1], str) else ()):
            code, message = _run(_mutated(BUILTINS[name], path, value), tmp_path, prefix=3, budget=10**4)
            assert code in (0, 1, 2, 3), (path, value, message)
