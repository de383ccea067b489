"""The benchmark's per-layer tracer still runs over the package.

`bench/tracing.py` wraps the package's public functions and
`cuts.Cut.__post_init__` from outside; only the benchmark's own tests
(`python3 -m pytest bench/test_bench.py`) exercise it otherwise, so a
kernel change that broke `bench/run.py --trace 1` would go unseen here.
"""

import importlib.util
import json
from pathlib import Path

from tclass import cuts as C
from tclass.cli import cmd_verify, load_model

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_validated_cuts_around_verify():
    tracing = load_tracing()
    kind, model = load_model(json.dumps({"kind": "valuation", "group": ["Q", "Z", {"Zloc": [2]}]}))
    post_init, mul = vars(C.Cut)["__post_init__"], C.mul
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = cmd_verify(kind, model, 5, 1, None)
    finally:
        tracer.uninstall()

    assert report["passed"]
    assert tracer.calls("cuts.Cut.__post_init__") > 0
    assert tracing.layer_metrics(tracer)["cuts.Cut.created"][0] > 0
    assert tracer.calls("cuts.mul") > 0
    assert vars(C.Cut)["__post_init__"] is post_init and C.mul is mul
