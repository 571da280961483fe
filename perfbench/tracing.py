"""Span tracing of qdswitch from outside the package.

The tracer replaces module-level public functions at the attributes where
their callers look them up (``qdswitch.switching.voltage_to_detuning``,
``qdswitch.cli.write_csv``, ...), records one span per call in compact
arrays, and restores the originals afterwards.  Nothing under ``src/``
knows about it.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "config", "electrostatics", "cqed", "switching", "fitting",
          "csvio", "manifest")

# Functions wrapped in their own module as well: entry points the benchmark
# calls, and calls that named metrics need (rc_response, sha256_file).
OWN_MODULE_SITES = {
    "cli": ("main",),
    "switching": ("rc_response",),
    "manifest": ("sha256_file",),
    "csvio": ("ingest_spectrum_csv", "ingest_shift_csv"),
    "fitting": ("fit_spectrum", "fit_stark_curve", "fit_contrast"),
}
CONFIG_METHODS = ("electrostatic_params", "stark_coefficients", "optical_frame",
                  "cavity_decay", "cqed_params", "drive_spec", "g_anchors",
                  "voltage_grid", "detuning_grid", "screening")

OP_SPAN = "op"


def _count_rc(counts, args, result):
    counts["switching.rc_samples"] += int(result.values.size)


def _count_point(counts, args, result):
    counts["cqed.points"] += 1


def _count_spectrum(counts, args, result):
    counts["cqed.points"] += len(result)


def _count_fit(counts, args, result):
    counts["fitting.iterations"] += int(result.iterations)
    counts["fitting.converged"] += bool(result.converged)


def _count_write(counts, args, result):
    with open(result, "rb") as f:
        data = f.read()
    counts["csvio.write_bytes"] += len(data)
    counts["csvio.write_rows"] += data.count(b"\n") - 1  # minus the header


def _count_spectrum_rows(counts, args, result):
    counts["csvio.ingest_rows"] += len(result)


def _count_shift_rows(counts, args, result):
    counts["csvio.ingest_rows"] += int(result.voltages.size)


def _count_hashed(counts, args, result):
    counts["manifest.bytes_hashed"] += os.path.getsize(args[0])


COUNTERS = {
    "switching.rc_response": _count_rc,
    "cqed.reflectivity_at": _count_point,
    "cqed.reflectivity_spectrum": _count_spectrum,
    "cqed.pl_spectrum": _count_spectrum,
    "fitting.fit_spectrum": _count_fit,
    "fitting.fit_stark_curve": _count_fit,
    "fitting.fit_contrast": _count_fit,
    "csvio.write_csv": _count_write,
    "csvio.ingest_spectrum_csv": _count_spectrum_rows,
    "csvio.ingest_shift_csv": _count_shift_rows,
    "manifest.sha256_file": _count_hashed,
}


def wrap_sites(modules: dict) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every call site the tracer wraps.

    modules maps each layer name to its imported qdswitch module.  A site
    is a public function of one layer bound in another layer's namespace,
    plus the own-module sites and the RunConfig builder methods.
    """
    sites = []
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if home in modules and (home != layer
                                    or attr in OWN_MODULE_SITES.get(layer, ())):
                sites.append((module, attr, f"{home}.{obj.__name__}"))
    run_config = modules["config"].RunConfig
    sites.extend((run_config, name, f"config.{name}") for name in CONFIG_METHODS)
    return sites


class Tracer:
    """In-memory span recorder.  One instance records one traced pass."""

    def __init__(self, modules: dict):
        self._sites = wrap_sites(modules)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._name(name)
        count = COUNTERS.get(name)
        enter, exit_, counts = self._enter, self._exit, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if count is not None:
                count(counts, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._sites]
        try:
            for (owner, attr, name), (_, _, fn) in zip(self._sites, originals):
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; every span recorded inside carries op_id."""
        self._op_id = op_id
        idx = self._enter(self._name(OP_SPAN))
        try:
            yield
        finally:
            self._exit(idx)
            self._op_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans on one thread nest without overlap, so the children of a span
    cover disjoint parts of it.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return dur - child


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op layer times (ms) and per-pass counts from one traced pass."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    names = np.array(tracer.names, dtype=object)[a["name_id"]]
    layers = np.array([n.split(".", 1)[0] for n in names], dtype=object)

    def per_op_ms(total_s: float) -> float:
        return 1e3 * float(total_s) / n_ops

    out: dict[str, float] = {}
    for layer in LAYERS:
        mask = layers == layer
        out[f"{layer}.self_ms"] = per_op_ms(own[mask].sum())
        out[f"{layer}.calls"] = int(mask.sum())
    out["switching.rc_response_ms"] = per_op_ms(dur[names == "switching.rc_response"].sum())
    out["fitting.contrast_ms"] = per_op_ms(dur[names == "fitting.fit_contrast"].sum())
    out["csvio.write_ms"] = per_op_ms(dur[names == "csvio.write_csv"].sum())
    ingest = (names == "csvio.ingest_spectrum_csv") | (names == "csvio.ingest_shift_csv")
    out["csvio.ingest_ms"] = per_op_ms(dur[ingest].sum())
    out["op.inprocess_ms"] = per_op_ms(dur[names == OP_SPAN].sum())
    for key in ("switching.rc_samples", "cqed.points", "fitting.iterations",
                "csvio.write_bytes", "csvio.write_rows", "csvio.ingest_rows",
                "manifest.bytes_hashed"):
        out[key] = int(tracer.counts[key])
    fits = out["fitting.calls"]
    out["fitting.converged_ratio"] = tracer.counts["fitting.converged"] / fits if fits else 0.0
    return out
