"""CLI: exit codes, schema rejection, artifacts, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from amenact.cli import BUILTINS, KINDS, load_scenario, main, run_scenario

REPO = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((REPO / "perfbench" / "golden.json").read_text())


def test_every_builtin_parses_and_validates():
    from amenact.cli import validate_scenario

    assert len(BUILTINS) >= 10
    for name in BUILTINS:
        validate_scenario(load_scenario(name))


def test_run_builtin_exit_zero(tmp_path):
    code, message = run_scenario("example-doubling", out_dir=tmp_path)
    assert code == 0
    assert (tmp_path / "example-doubling.csv").exists()


def test_csv_output_is_deterministic(tmp_path):
    run_scenario("example-doubling", out_dir=tmp_path / "a")
    run_scenario("example-doubling", out_dir=tmp_path / "b")
    first = (tmp_path / "a" / "example-doubling.csv").read_bytes()
    second = (tmp_path / "b" / "example-doubling.csv").read_bytes()
    assert first == second


def test_malformed_file_is_schema_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, message = run_scenario(str(bad))
    assert code == 2 and "schema" in message


def _unreadable_directory(tmp_path):
    return tmp_path


def _unreadable_long_name(tmp_path):
    # past the file-system limit on one name: Path.exists raises
    return tmp_path / ("x" * 300)


def _unreadable_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    return path


def _unreadable_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    return path


@pytest.mark.parametrize("make, reason", [
    (_unreadable_directory, "cannot read"),
    (_unreadable_long_name, "cannot read"),
    (_unreadable_not_utf8, "is not UTF-8 text"),
    (_unreadable_deep_nesting, "nests too deeply to parse as JSON"),
], ids=["directory", "long-name", "not-utf8", "deep-nesting"])
def test_unreadable_scenario_is_a_schema_error_naming_the_path(tmp_path, capsys, make, reason):
    path = str(make(tmp_path))
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("schema error: ") and repr(path) in err and reason in err


def test_out_naming_an_existing_file_exits_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", "example-doubling", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip() == f"cannot write {taken}: File exists"
    assert taken.read_text() == ""


def test_unknown_keys_rejected(tmp_path):
    sc = dict(BUILTINS["example-doubling"])
    sc["surprise"] = 1
    f = tmp_path / "extra.json"
    f.write_text(json.dumps(sc))
    code, message = run_scenario(str(f))
    assert code == 2 and "surprise" in message


def test_unknown_kind_rejected(tmp_path):
    f = tmp_path / "weird.json"
    f.write_text(json.dumps({"kind": "frobnicate"}))
    assert run_scenario(str(f))[0] == 2


def test_failing_check_exits_one(tmp_path):
    sc = dict(BUILTINS["example-doubling"])
    sc["checks"] = [{"type": "every_ratio", "value": 0.5, "tol": 1e-9}]
    f = tmp_path / "fail.json"
    f.write_text(json.dumps(sc))
    code, message = run_scenario(str(f))
    assert code == 1 and "check failed" in message


def test_shift_vector_of_the_wrong_length_exits_two(tmp_path):
    sc = dict(BUILTINS["addition-mod4"])
    sc["group"] = {"family": "direct-sum", "base": [4], "index": {"family": "Z^d", "dim": 2}}
    f = tmp_path / "short-shift.json"
    f.write_text(json.dumps(sc))
    code, message = run_scenario(str(f))
    assert code == 2 and "needs 2 entries" in message


def test_budget_exceeded_exits_three():
    code, message = run_scenario("example-doubling", budget=10)
    assert code == 3 and "budget" in message


def test_addition_certifies_windows_past_the_former_cap(tmp_path):
    # a window of (Z/6 x Z/6)^(Z) at scale 1 has 6^6 = 46656 elements, past the
    # 4096 the certificate once enumerated (it exited 3)
    scenario = REPO / "tests" / "scenarios" / "addition-z6-squared.json"
    code, message = run_scenario(str(scenario), out_dir=tmp_path)
    assert code == 0, message
    lines = (tmp_path / "addition-z6-squared.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("values")]
    assert len(rows) == 6 and all(row[-1] == "True" for row in rows)
    assert rows[0][2:5] == ["46656", "729", "64"]


def test_tiling_budget_caps_the_region_cells(tmp_path):
    code, message = run_scenario("tiling-square", out_dir=tmp_path, budget=10)
    assert code == 3 and "10000 cells" in message
    assert not (tmp_path / "tiling-square.csv").exists()
    small = tmp_path / "small.json"
    small.write_text(json.dumps(dict(BUILTINS["tiling-square"], region=12, tiles=[3])))
    assert run_scenario(str(small), budget=143)[0] == 3
    assert run_scenario(str(small), budget=144)[0] in (0, 1)


def test_budget_message_names_the_element_that_ran_out(tmp_path):
    # counts 4, 12, ..., 972 at s = 0..5; the image of s = 6 makes 2916,
    # on the way to F_7 = {0, ..., 6}
    code, message = run_scenario("example-wide-seed", out_dir=tmp_path, budget=1000)
    assert code == 3
    assert message == (
        "budget exceeded: trajectory exceeded 1000 elements (ran out at (6,), net index 7)"
    )
    assert not (tmp_path / "example-wide-seed.csv").exists()


# x -> 4x on {0, 1} at prefix 24: the count 2^24 passes the default
# budget at s = 23, where the sumset held 2^23 points over a span of 4^23
# bits and unpacked them into tuples (a MemoryError under 1 GB)
BIG_DOUBLING = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from amenact.cli import run_scenario
start = time.perf_counter()
code, message = run_scenario("example-doubling", None, 24)
print(message)
print(time.perf_counter() - start)
sys.exit(code)
"""


def test_one_scalar_set_seed_runs_out_of_budget_in_bounded_memory():
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BIG_DOUBLING], capture_output=True, text=True,
                          timeout=20, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 3, proc.stderr
    message, seconds = proc.stdout.splitlines()
    assert message == (
        "budget exceeded: trajectory exceeded 10000000 elements (ran out at (23,), net index 24)"
    )
    assert float(seconds) < 1.0


def test_subgroup_seeds_honour_the_budget(tmp_path, capsys):
    # the boxes [-i, i]^2 hold 9, 25, ..., 961, 1089 elements: the 1001st
    # element visited lies in F_16
    code = main(["run", "quotient-vanishing", "--prefix", "40", "--budget", "1000",
                 "--out", str(tmp_path)])
    assert code == 3
    message = capsys.readouterr().err.strip()
    assert message.startswith("budget exceeded: subgroup trajectory visited more than 1000")
    assert message.endswith(", net index 16)") and "ran out at (" in message
    assert not (tmp_path / "quotient-vanishing.csv").exists()
    assert run_scenario("quotient-vanishing", tmp_path, 15, budget=961)[0] == 0


@pytest.mark.parametrize("name, prefix, element, index", [
    # F_i = [0, i) on N: the 11th element visited is 10, in F_11
    ("bridge-bernoulli", 400, (10,), 11),
    # F_i = [-i, i] on Z: 3, 5, 7, 9, 11 elements, the 11th is 5 in F_5
    ("addition-mod4", 200, (5,), 5),
])
def test_bridge_and_addition_honour_the_budget(tmp_path, capsys, name, prefix, element, index):
    code = main(["run", name, "--prefix", str(prefix), "--budget", "10", "--out", str(tmp_path)])
    assert code == 3
    message = capsys.readouterr().err.strip()
    assert message == (
        "budget exceeded: subgroup trajectory visited more than 10 monoid elements"
        f" (ran out at {element}, net index {index})"
    )
    assert not (tmp_path / f"{name}.csv").exists()


def test_fubini_budget_names_the_net_index(tmp_path, capsys):
    # the product net reaches [0, 3)^2 at index 9; the image of s = (2, 2)
    # takes the trajectory of {0, 1} under 2^a past 20 elements
    code = main(["run", "fubini-product", "--budget", "20", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.strip() == (
        "budget exceeded: trajectory exceeded 20 elements (ran out at (2, 2), net index 9)"
    )
    assert not (tmp_path / "fubini-product.csv").exists()


def test_counts_past_the_digit_limit_are_written_exactly(tmp_path):
    # |T_{F_7200}| = 2^14401 has 4336 digits, past str()'s default limit of 4300
    code, message = run_scenario("bernoulli-two-sided", out_dir=tmp_path, prefix=7200)
    assert code == 0, message
    rows = (tmp_path / "bernoulli-two-sided.csv").read_text().splitlines()
    index, size, count, _ = rows[-1].split(",")
    assert (index, size, len(count)) == ("7200", "14401", 4336)
    value = 0
    for start in range(0, len(count), 1000):
        chunk = count[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == 2**14401


def test_duality_props_stops_at_the_subgroup_count_budget(tmp_path):
    # (Z/2)^13 is inside the order cap but has far more subgroups than the
    # count budget; the enumeration once ran without end here
    scenario = tmp_path / "elementary.json"
    scenario.write_text(json.dumps({"kind": "duality-props", "groups": [[2] * 13]}))
    start = time.perf_counter()
    code, message = run_scenario(str(scenario))
    assert code == 3 and "65536 subgroups" in message
    assert time.perf_counter() - start < 30


def _duality_props_columns(tmp_path):
    code, message = run_scenario("duality-props-small", out_dir=tmp_path)
    assert code == 1 and "violation at" in message
    rows = list(csv.DictReader(io.StringIO((tmp_path / "duality-props-small.csv").read_text())))
    return {column: {row[column] for row in rows} for column in rows[0]}


def test_duality_laws_fail_with_a_wrong_annihilator(tmp_path, monkeypatch):
    from amenact import cli
    from amenact.abelian import Subgroup

    monkeypatch.setattr(cli, "annihilator", lambda b: Subgroup.full(b.group))
    columns = _duality_props_columns(tmp_path)
    assert columns["order_law"] == columns["double_annihilator"] == {"False"}


def test_sum_law_fails_with_a_wrong_intersection(tmp_path, monkeypatch):
    from amenact import lattices

    # B1-perp in place of B1-perp meet B2-perp
    monkeypatch.setattr(lattices, "intersect", lambda rows1, rows2, dim: lattices.hnf(rows1, dim))
    columns = _duality_props_columns(tmp_path)
    assert columns["sum_law"] == {"False"}
    assert columns["order_law"] == columns["double_annihilator"] == {"True"}


@pytest.mark.parametrize("wrong", [
    # B2-perp in place of the meet: with one argument order per pair, only
    # the alternation of that order catches both this and B1-perp
    lambda rows1, rows2: rows2,
    # the join B1-perp + B2-perp in place of the meet
    lambda rows1, rows2: rows1 + rows2,
], ids=["second-argument", "join"])
def test_sum_law_fails_with_other_wrong_intersections(tmp_path, monkeypatch, wrong):
    from amenact import lattices

    hnf = lattices.hnf
    monkeypatch.setattr(lattices, "intersect", lambda rows1, rows2, dim: hnf(wrong(rows1, rows2), dim))
    columns = _duality_props_columns(tmp_path)
    assert columns["sum_law"] == {"False"}
    assert columns["order_law"] == columns["double_annihilator"] == {"True"}


def _duality_props_values_per_call(sc):
    """Oracle: the duality-props laws with one annihilator per use, each the
    kernel oracle's on the subgroup's generators, every join's taken on its
    stacked generators."""
    from amenact import lattices
    from amenact.abelian import FiniteProduct, Subgroup
    from amenact.duality import subgroup_lattice
    from test_duality import kernel_annihilator_basis

    def annihilator(b):
        basis = kernel_annihilator_basis(b.group.factors, b.gens)
        return Subgroup.generated(b.group, [tuple(r) for r in basis])

    values = []
    for factors in sc["groups"]:
        g = FiniteProduct(tuple(factors))
        subs = [Subgroup.generated(g, gens) for gens, _ in subgroup_lattice(g)]
        pairs = [(b, annihilator(b)) for b in subs]
        order_law = all(b.order() * perp.order() == g.order for b, perp in pairs)
        double = all(annihilator(perp) == b for b, perp in pairs)
        sum_law = all(
            annihilator(b1.join(b2))._flat()[1]
            == lattices.intersect(p1._flat()[1], p2._flat()[1], len(factors))
            for b1, p1 in pairs[:12]
            for b2, p2 in pairs[:12]
        )
        ok = order_law and double and sum_law
        values.append((tuple(factors), len(subs), order_law, double, sum_law, ok))
    return values


@pytest.mark.parametrize(
    "sc", [BUILTINS["duality-props-small"], {"groups": [[4, 6], [2, 6, 4], [1], []]}],
    ids=["duality-props-small", "edge-groups"],
)
def test_duality_props_matches_the_per_call_oracle(sc):
    from amenact import cli

    _, context = cli._run_duality_props(sc, None, None)
    assert context["values"] == _duality_props_values_per_call(sc)


def test_duality_props_computes_each_annihilator_once(monkeypatch):
    from amenact import cli

    calls = []
    real = cli.annihilator

    def counted(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(cli, "annihilator", counted)
    assert run_scenario("duality-props-small")[0] == 0
    assert len(set(calls)) == len(calls) == 52
    assert Counter(b.group.factors for b in calls) == {
        (8,): 4, (2, 4): 8, (2, 2, 2): 16, (9, 3): 10, (5, 5): 8, (12,): 6,
    }


def test_duality_props_reads_one_hermite_form_per_annihilator_and_join(monkeypatch):
    from amenact import lattices

    calls = []
    real = lattices.hnf

    def counted(rows, dim):
        calls.append(dim)
        return real(rows, dim)

    monkeypatch.setattr(lattices, "hnf", counted)
    assert run_scenario("duality-props-small")[0] == 0
    # 52 annihilators and 236 joins, one per unordered pair; a listed
    # subgroup keeps the Hermite form it is listed as, and an annihilator's
    # is B's own
    assert len(calls) == 52 + 236


def test_duality_props_reads_a_join_missing_from_the_listing(tmp_path, monkeypatch, capsys):
    from amenact import cli
    from amenact.abelian import FiniteProduct, Subgroup

    # <e2, e3> of (Z/2)^3 is the join of <e3> and <e2>, both among the first
    # 12 listed, and the annihilator of the listed <e1>
    g = FiniteProduct((2, 2, 2))
    missing = Subgroup.generated(g, [(0, 1, 0), (0, 0, 1)])
    real_gens, real_perp = cli._subgroup_gens, cli.annihilator
    asked = []

    def all_but_one(group):
        return (gens for gens in real_gens(group) if Subgroup.generated(group, gens) != missing)

    def annihilator(b):
        asked.append(b)
        return real_perp(b)

    monkeypatch.setattr(cli, "_subgroup_gens", all_but_one)
    monkeypatch.setattr(cli, "annihilator", annihilator)
    code, message = run_scenario("duality-props-small", out_dir=tmp_path)
    assert code == 0, message
    assert "Traceback" not in capsys.readouterr().err
    assert missing in asked
    rows = list(csv.DictReader(io.StringIO((tmp_path / "duality-props-small.csv").read_text())))
    assert [row["subgroups"] for row in rows] == ["4", "8", "15", "10", "8", "6"]
    for column in ("order_law", "double_annihilator", "sum_law", "ok"):
        assert {row[column] for row in rows} == {"True"}


def test_duality_props_meets_each_unordered_pair_once(monkeypatch):
    from amenact import cli, lattices

    calls = []
    real = lattices.intersect

    def counted(rows1, rows2, dim):
        calls.append(dim)
        return real(rows1, rows2, dim)

    monkeypatch.setattr(lattices, "intersect", counted)
    assert run_scenario("duality-props-small")[0] == 0
    # m (m + 1) / 2 per group, m = min(12, subgroups): 10 + 36 + 78 + 55 + 36 + 21
    assert len(calls) == 236


def test_tiling_checks_its_witness_once(tmp_path, monkeypatch):
    from amenact import cli, folner

    calls = []

    def counted(*args):
        calls.append(args)
        return folner.check_tiling(*args)

    monkeypatch.setattr(cli, "check_tiling", counted)
    monkeypatch.setattr(folner, "remtil_check", None)
    assert run_scenario("tiling-square", out_dir=tmp_path)[0] == 0
    assert len(calls) == 1
    unreachable = tmp_path / "unreachable.json"
    unreachable.write_text(json.dumps(dict(BUILTINS["tiling-square"], region=5, tiles=[3])))
    code, message = run_scenario(str(unreachable), out_dir=tmp_path)
    assert code == 1 and "greedy pass missed the bound" in message
    assert (tmp_path / "unreachable.csv").read_text() == "status\nno-witness\n"
    assert len(calls) == 2


def test_missing_file_is_schema_error():
    assert run_scenario("definitely-not-a-scenario")[0] == 2


def test_main_list_and_describe(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "example-doubling" in out and len(out.strip().splitlines()) >= 10

    assert main(["describe", "entropy"]) == 0
    out = capsys.readouterr().out
    assert "seed" in out

    assert main(["describe", "nonsense"]) == 2


def test_main_run_with_plot(tmp_path, capsys):
    code = main(["run", "example-doubling", "--out", str(tmp_path), "--plot"])
    assert code == 0
    svg = (tmp_path / "example-doubling.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_log_base_appends_display_row(tmp_path):
    run_scenario("example-doubling", out_dir=tmp_path, log_base=2.0)
    text = (tmp_path / "example-doubling.csv").read_text()
    assert "# ratios in base 2.0" in text
    assert "1.0" in text.splitlines()[-1]


def test_prefix_override(tmp_path):
    code, _ = run_scenario("example-doubling", out_dir=tmp_path, prefix=5)
    assert code == 0
    rows = (tmp_path / "example-doubling.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 5


def test_scenario_file_roundtrip(tmp_path):
    # builtins serialize to JSON and run identically from a file
    f = tmp_path / "copy.json"
    f.write_text(json.dumps(BUILTINS["card-pi-half"]))
    code, _ = run_scenario(str(f), out_dir=tmp_path)
    assert code == 0
    assert (tmp_path / "copy.csv").exists()


def test_construction_errors_exit_two():
    # each file is well-formed but names an action, subgroup or quotient the
    # library refuses to build; the library's message comes back, no traceback
    corpus = sorted((REPO / "tests" / "invalid_scenarios").glob("*.json"))
    assert len(corpus) == 6
    for path in corpus:
        code, message = run_scenario(str(path))
        assert code == 2, (path.name, message)
        label, _, detail = message.partition(": ")
        assert label == "invalid scenario" and detail, path.name


@pytest.mark.parametrize("log_base", [1, 1.0, 0, -2.0, math.inf, -math.inf, math.nan])
def test_bad_log_base_is_schema_error(tmp_path, log_base):
    code, message = run_scenario("example-doubling", out_dir=tmp_path, log_base=log_base)
    assert code == 2 and "--log-base" in message
    assert not (tmp_path / "example-doubling.csv").exists()


@pytest.mark.parametrize("prefix", [0, -3])
def test_bad_prefix_is_schema_error(prefix):
    code, message = run_scenario("example-doubling", prefix=prefix)
    assert code == 2 and "prefix" in message


def test_bad_prefix_field_is_schema_error(tmp_path):
    f = tmp_path / "zero.json"
    f.write_text(json.dumps(dict(BUILTINS["example-doubling"], prefix=0)))
    code, message = run_scenario(str(f))
    assert code == 2 and "prefix" in message


def test_main_rejects_bad_numbers(capsys):
    assert main(["run", "example-doubling", "--log-base", "1"]) == 2
    assert main(["run", "example-doubling", "--log-base", "inf"]) == 2
    assert main(["run", "example-doubling", "--prefix", "0"]) == 2
    assert "schema error" in capsys.readouterr().err


def test_builtins_cover_every_kind():
    assert {spec["kind"] for spec in BUILTINS.values()} == set(KINDS)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_csv_matches_recorded_digest(tmp_path, name):
    # digests recorded for the benchmark's golden table; report tables end
    # lines with CRLF and the CLI's own tables with LF, and both must hold
    code, message = run_scenario(name, out_dir=tmp_path)
    data = (tmp_path / f"{name}.csv").read_bytes()
    assert code == GOLDEN[name]["exit"], message
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]["csv_sha256"]


Z2_TIMES_Z = {"family": "product", "parts": [{"family": "finite", "factors": [2]}, {"family": "Z^d", "dim": 1}]}
LINE_SHIFTS = {
    "group": {"family": "direct-sum", "base": [2], "index": {"family": "Z^d", "dim": 1}},
    "action": {"generators": [{"kind": "shift", "by": [0]}, {"kind": "shift", "by": [1]}]},
    "seed": {"subgroup_basis": [[[[0], [1]]]]},
}
BOX_FAMILY_RUNS = {
    "entropy-N0": ({"kind": "entropy", "monoid": {"family": "N^d", "dim": 0},
                    "group": {"family": "finite", "factors": [2, 3]}, "action": {"generators": []},
                    "seed": {"subgroup_basis": [[1, 1]]}, "net": {"family": "box"}, "prefix": 3},
                   "f6442f51b29e2787a5a6b7beed6b706ead9ec3c04419f528b45c21893289f59c"),
    "entropy-Z1": ({"kind": "entropy", "monoid": {"family": "finite", "factors": [1]},
                    "group": {"family": "finite", "factors": [4]}, "action": {"generators": [{"kind": "identity"}]},
                    "seed": {"subgroup_basis": [[2]]}, "net": {"family": "box"}, "prefix": 3},
                   "730f722855e3d5512d12be7c57b37bb1bec3109e032c6e8d603b898654af76e3"),
    "entropy-Z2xZ-product": ({"kind": "entropy", "monoid": Z2_TIMES_Z, **LINE_SHIFTS,
                              "net": {"family": "product"}, "prefix": 9},
                             "617bd5bce091fecd596a1834ef68e0999638e1985f7f0c9d1f69adeb86a361c7"),
    "bridge-Z2xZ-box": ({"kind": "bridge", "monoid": Z2_TIMES_Z, **LINE_SHIFTS, "net": {"family": "box"}, "prefix": 6},
                        "d420492c923cd0a236dcc9ca2d9ef871912bcb0e8752ccf5907cdd6f8030b9db"),
    "folner-verify-Z2xN": ({"kind": "folner-verify", "monoid": {"family": "product", "parts": [
                                {"family": "finite", "factors": [2]}, {"family": "N^d", "dim": 1}]},
                            "test": [[1, 0], [0, 1], [1, 2]], "net": {"family": "box"}, "prefix": 5},
                           "060073137a673ad799f7d21227ed876170489e758fb3fcaa1896b8a72657324a"),
    "integral-card-Z0": ({"kind": "integral", "monoid": {"family": "Z^d", "dim": 0},
                          "function": {"kind": "card"}, "net": {"family": "box"}, "prefix": 3},
                         "1aa23cac61814d8f52c530813186efeebf0c19786270f47e37a756335c47dd5e"),
    "canonical-net-Z3": ({"kind": "canonical-net", "monoid": {"family": "finite", "factors": [3]},
                          "requests": [{"test": [[1]], "n": 2}, {"test": [[0], [2]], "n": 5}]},
                         "c5c9d4f1870cd9b0d6570aa28d9e66825dea4641753d6b37f676f32dc85c55dc"),
}


@pytest.mark.parametrize("name", BOX_FAMILY_RUNS)
def test_box_family_csv_matches_recorded_digest(tmp_path, name):
    """Box families no builtin covers: N^0, Z^0, Z/1, Z/3 and products of a
    finite group with N or Z, over box and product nets."""
    sc, digest = BOX_FAMILY_RUNS[name]
    source = tmp_path / f"{name}.json"
    source.write_text(json.dumps(sc))
    code, message = run_scenario(str(source), out_dir=tmp_path)
    assert code == 0, message
    assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == digest
