"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Checks the tracer's self-time arithmetic and rebinding, that a golden
mismatch is caught, that a short run prints every metric BENCHMARK.json
names, and that the command fails without a result when the library is
missing.  Takes about half a minute.
"""

import json
import re
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

from run import OUT, ROOT, WORKLOADS, import_library

import_library()
import tracing  # noqa: E402  (needs the library on the path)
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def result_of(*args, root=ROOT):
    """Exit code and parsed result line of ``perfbench/run.py`` under ``root``."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = child.stdout.strip().splitlines()
    return child.returncode, (json.loads(lines[-1]) if lines else None)


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()

        def inner():
            time.sleep(0.02)

        inner = tracer.wrap("inner", inner)

        def outer():
            time.sleep(0.01)
            inner()
            inner()

        outer = tracer.wrap("outer", outer)
        tracer.op = 7
        outer()
        self.assertEqual(tracer.calls, {"inner": 2, "outer": 1})
        outer_span = next(s for s in tracer.spans if s[0] == "outer")
        total = outer_span[2] - outer_span[1]
        self.assertAlmostEqual(tracer.self_s["outer"] + tracer.self_s["inner"], total, places=9)
        self.assertLess(tracer.self_s["outer"], 0.03)
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertEqual({s[4] for s in tracer.spans}, {7})

    def test_install_rebinds_by_name_imports(self):
        from amenact import cli, duality

        originals = (cli.h_alg_estimate, duality.subgroup_trajectory, cli._RUNNERS["tiling"])
        tracing.Tracer().install(callers=[workloads])
        for before, after in zip(
            originals, (cli.h_alg_estimate, duality.subgroup_trajectory, cli._RUNNERS["tiling"])
        ):
            self.assertIsNot(before, after)
            self.assertIs(after.__wrapped__, before)


class GoldenTest(unittest.TestCase):
    def test_mismatch_is_caught(self):
        ctx = workloads.Context(OUT / "selftest-golden")
        try:
            op = workloads.scenario_op(ctx, "canonical-boxes-Z")
            golden = workloads.load_golden()
            result = op.call()
            workloads.check(op, result, golden)
            wrong = dict(golden, **{op.key: dict(golden[op.key], csv_sha256="0" * 64)})
            with self.assertRaises(workloads.GoldenMismatch):
                workloads.check(op, result, wrong)
        finally:
            shutil.rmtree(ctx.workdir)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
        names = [m["name"] for m in metrics + BENCHMARK["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(NAME.match(n) for n in names))
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"]))
        setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(
            [w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS)
        )

    def test_short_runs_report_every_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = result_of(
                "--workload", "builtins", "--seed", "5", "--seconds", "0", "--trace", str(trace)
            )
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)

    def test_fails_without_the_library(self):
        bare = OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(Path(__file__).parent, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            code, result = result_of(
                "--workload", "builtins", "--seed", "0", "--seconds", "1", "--trace", "0", root=bare
            )
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
