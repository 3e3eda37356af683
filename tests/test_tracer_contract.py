"""The benchmark tracer's view of the program stays whole.

perfbench/tracer.py wraps the program's layers from outside, under the
module attributes their callers look up, and reads arguments and results
in its tally functions. A layer it cannot find, or a tally that fails, drops
per-layer metrics from a traced benchmark pass; a tally that raises
something else crashes the pass. This test loads the tracer as it is and
runs the three kinds of work the benchmark traces under it.
"""

import importlib.util
import json
import math
from pathlib import Path

import mpnav.cli
import mpnav.evaluate

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_and_metrics_complete(tmp_path):
    tracer_mod = load_tracer()
    ring = json.loads((ROOT / "configs" / "single_ring.json").read_text())
    # cut to 2 s, and so without the preset's 20-40 s outage, which the cut
    # run never reaches
    ring["duration_s"] = 2
    ring["outages"] = []
    (tmp_path / "ring.json").write_text(json.dumps(ring))
    replay = dict(ring, with_sbr=False, measurement_log="ring/measurements.jsonl")
    (tmp_path / "replay.json").write_text(json.dumps(replay))

    # called through the module attributes, as the benchmark calls them
    with tracer_mod.Tracer() as tracer:
        for name in ("ring", "replay"):
            args = [str(tmp_path / f"{name}.json"), "--output-dir", str(tmp_path / name)]
            assert mpnav.cli.main(args) == mpnav.cli.EXIT_OK
        mpnav.evaluate.run_outage_sweep(
            durations=[2.0], speeds=[8.0], seeds=(0,), pre_s=2.0, post_s=1.0
        )

    assert tracer.missing == []
    assert tracer.tally_errors == set()
    metrics = tracer.metrics()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
    assert sorted(set(names) - set(metrics)) == []
    assert all(math.isfinite(v) for v in metrics.values())
    json.dumps(metrics, allow_nan=False)
    never_called = [layer for layer in tracer_mod.LAYERS if metrics[f"{layer}.calls"] == 0]
    assert never_called == []
