"""Self-tests of the benchmark (not part of the package's suite):

    python3 -m pytest bench/test_bench.py -q

They run the benchmark as the command line does, so they take a minute or
two.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from run import END_TO_END, TRACE_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_line(proc) -> str:
    return next(l for l in proc.stdout.splitlines() if l.startswith("report_sha256:"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_deterministic_counters_repeat(workload):
    runs = [run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    first, second = (result(r) for r in runs)
    assert first["correct"] and second["correct"]
    assert digest_line(runs[0]) == digest_line(runs[1])
    assert tracing.DETERMINISTIC
    assert ({n: first["metrics"][n] for n in tracing.DETERMINISTIC}
            == {n: second["metrics"][n] for n in tracing.DETERMINISTIC})


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    per_layer = {n: (unit, better) for n, (unit, better, _, _) in tracing.PER_LAYER.items()}
    per_layer.update({n: (unit, better) for n, (unit, better) in TRACE_METRICS.items()})
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer


def test_untraced_run_prints_every_end_to_end_metric():
    out = result(run_bench("--workload", "classify_stream", "--seed", "3", "--seconds", "1"))
    assert out["correct"] and out["failed"] == 0
    assert {n: m["unit"] for n, m in out["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "classify_stream", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
