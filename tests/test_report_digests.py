"""The benchmark's byte contract, checked in tier-1.

`bench/run.py` hashes the `--json` reports of each workload's first
`digest_rounds` rounds and gates every call's output.  Those four digests
have not moved since the benchmark was written; a package change that
moves one, or that makes a gate fail, would otherwise go unseen until the
benchmark runs.  This replays the rounds at seed 1 as `bench/run.py`
seeds them, from `bench/workloads.py` loaded as `tests/test_tracer.py`
loads `bench/tracing.py`.
"""

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from tclass.cli import load_model

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# workload -> the leading hex digits of its `report_sha256` at seed 1
DIGESTS = {
    "verify_pruefer": "26f334ce",
    "verify_valuation": "30d448c7",
    "classify_stream": "5ebc983e",
    "oracle_audit": "f990a2ca",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # `dataclasses` reads a class's module from `sys.modules` while the
    # module runs; it need not stay there after.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.mark.parametrize("name", DIGESTS)
def test_benchmark_reports_keep_their_digest(workloads, name):
    w = workloads[name]
    models = [load_model(s) for s in w.specs]
    digest = hashlib.sha256()
    for r in range(w.digest_rounds):
        for call in w.make_round(models, random.Random(f"{name}:1:{r}")):
            out = call.run()
            assert call.gate(out) == [], (call.label, call.gate(out))
            digest.update((json.dumps(out, sort_keys=True, indent=2) + "\n").encode())
    assert digest.hexdigest().startswith(DIGESTS[name]), digest.hexdigest()


def test_every_workload_has_a_digest(workloads):
    assert set(workloads) == set(DIGESTS)
