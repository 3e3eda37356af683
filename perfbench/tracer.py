"""Outside-in layer tracer.

Wraps the program's public functions from outside, under the names their
callers look up. The program imports names directly (``from .fusion import
predict``), so a wrapper goes on the calling module's attribute
(``mpnav.pipeline.predict``); patching only the defining module would
measure nothing. Each call records a span (name, start, end, parent) in
memory, a call count and self time: the span's duration minus the part
covered by wrapped calls nested inside it. Some layers also count work or
useful outcomes from the call's arguments and result.

A function that is missing from the program is skipped, and its metrics
are reported as absent.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter


def _paths_solved(args, kwargs, result):
    return {"paths": len(args[0]), "solved": result is not None}


def _flag(args, kwargs, result):
    return {"yes": bool(result)}


def _accepted(args, kwargs, result):
    return {"yes": bool(result[1].accepted)}


def _imu_samples(args, kwargs, result):
    return {"samples": len(args[3])}


def _n_specular(args, kwargs, result):
    return {"paths": int(result[0].size)}


def _log_size(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _n_records(args, kwargs, result):
    return {"records": sum(len(v) for v in result.values())}


# metric prefix -> (patch sites as (module, attribute path), tally function)
LAYERS = {
    "cli.main": ([("mpnav.cli", "main")], None),
    "pipeline.synth_measurements": (
        [("mpnav.cli", "synth_measurements"), ("mpnav.pipeline", "synth_measurements")],
        None,
    ),
    "synth.apply_noise": ([("mpnav.pipeline", "apply_noise")], None),
    "synth.synth_imu": ([("mpnav.pipeline", "synth_imu")], None),
    "scene.specular_arrays": ([("mpnav.scene", "SceneArrays.specular_arrays")], _n_specular),
    "scene.trajectory_poses": (
        [("mpnav.pipeline", "trajectory_poses"), ("mpnav.evaluate", "trajectory_poses")],
        None,
    ),
    "pipeline.run_pair": ([("mpnav.evaluate", "run_pair")], None),
    "pipeline.run_filter": (
        [("mpnav.cli", "run_filter"), ("mpnav.pipeline", "run_filter")],
        None,
    ),
    "fusion.predict": ([("mpnav.pipeline", "predict")], _imu_samples),
    "ins.mechanize_arrays": ([("mpnav.fusion", "mechanize_arrays")], None),
    "gates.classify_los": ([("mpnav.pipeline", "classify_los")], _flag),
    "fixes.los_fix": ([("mpnav.pipeline", "los_fix")], None),
    "gates.motion_gate": ([("mpnav.pipeline", "motion_gate")], None),
    "fusion.update_position": ([("mpnav.pipeline", "update_position")], _accepted),
    "fixes.sbr_locus_residuals": ([("mpnav.pipeline", "sbr_locus_residuals")], None),
    "gates.oori_check": ([("mpnav.pipeline", "oori_check")], _flag),
    "fixes.sbr_fix": ([("mpnav.pipeline", "sbr_fix")], _paths_solved),
    "fusion.update_position_yaw": ([("mpnav.pipeline", "update_position_yaw")], None),
    "synth.write_measurement_log": ([("mpnav.cli", "write_measurement_log")], _log_size),
    "evaluate.write_single_run": ([("mpnav.evaluate", "write_single_run")], None),
    "synth.read_measurement_log": ([("mpnav.cli", "read_measurement_log")], _n_records),
    "pipeline.measurement_set_from_records": (
        [("mpnav.cli", "measurement_set_from_records")],
        None,
    ),
}


def _per_call(key):
    """Tally per call; 0 when the layer was never called."""
    return lambda t: t.get(key, 0) / t["calls"] if t["calls"] else 0.0


def _total(key):
    return lambda t: t.get(key, 0)


# per-layer metric -> (layer, function of the layer's tallies); every layer
# also reports "<layer>.calls" and "<layer>.s" (self seconds)
DERIVED = {
    "scene.specular_arrays.paths": ("scene.specular_arrays", _total("paths")),
    "fixes.sbr_fix.paths_per_fix": ("fixes.sbr_fix", _per_call("paths")),
    "fixes.sbr_fix.solved_ratio": ("fixes.sbr_fix", _per_call("solved")),
    "gates.oori_check.admit_ratio": ("gates.oori_check", _per_call("yes")),
    "gates.classify_los.admit_ratio": ("gates.classify_los", _per_call("yes")),
    "fusion.update_position.accept_ratio": ("fusion.update_position", _per_call("yes")),
    "fusion.predict.imu_samples": ("fusion.predict", _total("samples")),
    "synth.write_measurement_log.mb": ("synth.write_measurement_log", _total("mb")),
    "synth.read_measurement_log.records": ("synth.read_measurement_log", _total("records")),
}


def _resolve(module_name, attr_path):
    """(owner object, attribute name, current value) or None if missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1)
        self.tallies = {}
        self.missing = []
        self.tally_errors = set()
        self._stack = []  # [span index, seconds covered by child spans]
        self._patches = []

    def _wrap(self, name, fn, tally):
        spans, stack, tallies = self.spans, self._stack, self.tallies[name]

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[frame[0]] = (name, t0, t1, parent)
                tallies["calls"] += 1
                tallies["s"] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if tally is not None and name not in self.tally_errors:
                try:
                    for key, v in tally(args, kwargs, result).items():
                        tallies[key] = tallies.get(key, 0) + v
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the function's signature moved; its extra counts go absent
                    self.tally_errors.add(name)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for name, (sites, tally) in LAYERS.items():
            found = [r for r in (_resolve(m, a) for m, a in sites) if r is not None]
            if not found:
                self.missing.append(name)
                continue
            self.tallies[name] = {"calls": 0, "s": 0.0}
            wrappers = {}
            for owner, attr, fn in found:
                # one wrapper per original, whichever module it is reached through
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, tally)
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        return False

    def metrics(self):
        """Per-layer metrics; layers not found in the program are absent."""
        out = {}
        for name, t in self.tallies.items():
            out[f"{name}.calls"] = t["calls"]
            out[f"{name}.s"] = t["s"]
        for metric, (layer, fn) in DERIVED.items():
            if layer in self.tallies and layer not in self.tally_errors:
                out[metric] = fn(self.tallies[layer])
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start_s,end_s,parent\n")
            t_base = self.spans[0][1] if self.spans else 0.0
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{t0 - t_base:.9f},{t1 - t_base:.9f},{parent}\n")
