"""The scenario schema: a malformed scenario exits 2 naming the JSON path at
fault before any runner starts, and no input ends in a traceback."""

import copy
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

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# corpus file -> the JSON path its schema error names
SCHEMA_ERRORS = {
    "addition-set-subgroup.json": "subgroup",
    "bridge-set-seed.json": "seed",
    "check-tol-string.json": "checks[1].tol",
    "check-unknown-key.json": "checks[0].bogus",
    "check-value-string.json": "checks[0].value",
    "check-wrong-kind.json": "checks[0].type",
    "constant-without-a.json": "function.a",
    "dim-not-integer.json": "monoid.dim",
    "direct-sum-entry-not-pair.json": "seed.subgroup_basis[0][0]",
    "direct-sum-flat-element.json": "seed.subgroup_basis[0][0]",
    "duality-zero-factor.json": "groups[1][1]",
    "folner-verify-prefix-one.json": "prefix",
    "fubini-subgroup-seed.json": "seed",
    "fubini-c-prefix-one.json": "c_prefix",
    "fubini-n-prefix-one.json": "n_prefix",
    "group-without-index.json": "group.index",
    "integral-prefix-one.json": "prefix",
    "monoid-without-dim.json": "monoid.dim",
    "seed-rng-removed.json": "seed_rng",
    "seed-set-empty.json": "seed.set",
    "semidirect-element-short.json": "element",
    "semidirect-short-pair.json": "pairs[1]",
    "shift-on-flat-group.json": "action.generators[0].by",
    "tail-without-value.json": "checks[0].value",
    "tiling-epsilon-not-ratio.json": "epsilon",
}
CORPORA = sorted((TESTS / "schema_errors").glob("*.json")) + sorted(
    (TESTS / "invalid_scenarios").glob("*.json")
)


_DELETE = object()


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
    assert message.startswith(f"schema error: {SCHEMA_ERRORS[name]} "), message
    assert not list(tmp_path.iterdir())


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
            sc = copy.deepcopy(BUILTINS[name])
            *head, last = path
            parent = reduce(getitem, head, sc)
            if value is _DELETE:
                del parent[last]
            else:
                parent[last] = value
            code, message = _run(sc, tmp_path, prefix=3, budget=10**4)
            assert code in (0, 1, 2, 3), (path, value, message)
