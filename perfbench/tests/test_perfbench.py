"""Tests of the benchmark's own arithmetic: percentiles, self time,
failure counting and output digests."""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import Tally, beyond, digest_files, fail_ratio, percentile  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_percentile_interpolates_between_ranks():
    xs = list(range(1, 11))                  # 1..10, unsorted input is fine
    assert percentile(reversed(xs), 50) == pytest.approx(5.5)
    assert percentile(xs, 90) == pytest.approx(9.1)
    assert percentile(xs, 0) == 1 and percentile(xs, 100) == 10
    assert percentile([7.0], 90) == 7.0


def test_samples_beyond_a_percentile():
    xs = list(range(1, 101))
    assert beyond(xs, 90) == 10              # 91..100 lie above p90 = 90.1
    assert beyond(list(range(1, 11)), 90) == 1
    assert beyond([3.0] * 5, 50) == 0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_self_time_of_nested_and_sibling_spans():
    # root [0, 10] has siblings a [1, 4] and b [5, 9]; b has child c [6, 7].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert list(self_times(start, end, parent)) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_times_of_a_pass_sum_to_the_root_span():
    start = [0.0, 0.5, 0.6, 2.0, 3.0]
    end = [4.0, 1.5, 1.0, 2.5, 3.5]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent).sum() == pytest.approx(4.0)


def _op(kind, key):
    return SimpleNamespace(kind=kind, key=key)


def _outcome(digest, failure=None):
    return SimpleNamespace(digest=digest, failure=failure)


def test_fail_ratio_counting():
    tally = Tally()
    tally.record(_op("switch", "a"), _outcome("d1"), solver=False)
    tally.record(_op("fit_spectrum", "b"), _outcome("d2", "OverflowError"), solver=True)
    tally.record(_op("fit_spectrum", "b"), _outcome("d2", "OverflowError"), solver=True)
    tally.record(_op("switch", "c"), _outcome("d3", "exit 2"), solver=False)
    assert (tally.attempted, tally.failed) == (4, 3)
    assert fail_ratio(tally.attempted, tally.failed) == 0.75
    assert tally.reasons == {"fit_spectrum: OverflowError": 2, "switch: exit 2": 1}
    assert not tally.correct                 # a non-solver op failed


def test_solver_failures_count_but_keep_the_run_correct():
    tally = Tally()
    tally.record(_op("fit_spectrum", "b"), _outcome("d2", "not converged"), solver=True)
    tally.record(_op("stark", "s"), _outcome("d4"), solver=False)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)


def test_a_rerun_with_different_output_fails_and_is_wrong():
    tally = Tally()
    tally.record(_op("metrics", "m"), _outcome("d1"), solver=False)
    tally.record(_op("metrics", "m"), _outcome("d1"), solver=False)
    tally.record(_op("fit_spectrum", "m2"), _outcome("x"), solver=True)
    tally.record(_op("fit_spectrum", "m2"), _outcome("y"), solver=True)
    assert (tally.attempted, tally.failed, tally.correct) == (4, 1, False)
    assert set(tally.kind_digests()) == {"metrics", "fit_spectrum"}


def test_fail_ratio_rejects_impossible_counts():
    with pytest.raises(ValueError):
        fail_ratio(0, 0)
    with pytest.raises(ValueError):
        fail_ratio(2, 3)


def _manifest(tmp_path, name, stamp, extra=""):
    out = tmp_path / name
    out.mkdir()
    (out / "manifest.txt").write_text(
        f"command = stark\ncreated_utc = {stamp}\n"
        f"input.preset.path = {tmp_path}/src/paper.cfg\n{extra}")
    (out / "stark.csv").write_text("voltage_V\n0.0\n")
    return sorted(out.iterdir())


def test_digest_excludes_the_timestamp_and_the_checkout_path(tmp_path):
    a = _manifest(tmp_path, "a", "2026-01-01T00:00:00Z")
    b = _manifest(tmp_path, "b", "2026-06-30T12:34:56Z")
    assert digest_files(a, str(tmp_path), "exit=0") == digest_files(b, str(tmp_path), "exit=0")
    other_root = tmp_path / "elsewhere"
    other_root.mkdir()
    c = _manifest(other_root, "c", "2026-06-30T12:34:56Z")
    assert digest_files(c, str(other_root), "exit=0") == digest_files(a, str(tmp_path), "exit=0")


def test_digest_sees_every_other_byte_and_the_exit_status(tmp_path):
    a = _manifest(tmp_path, "a", "2026-01-01T00:00:00Z")
    b = _manifest(tmp_path, "b", "2026-01-01T00:00:00Z", extra="seed = 1\n")
    assert digest_files(a, str(tmp_path), "exit=0") != digest_files(b, str(tmp_path), "exit=0")
    assert digest_files(a, str(tmp_path), "exit=0") != digest_files(a, str(tmp_path), "exit=2")


def test_tracer_wraps_call_sites_and_restores_them():
    from qdswitch import cli, config, cqed, csvio, electrostatics, fitting, manifest, switching

    modules = {"cli": cli, "config": config, "electrostatics": electrostatics, "cqed": cqed,
               "switching": switching, "fitting": fitting, "csvio": csvio,
               "manifest": manifest}
    original = fitting.voltage_to_detuning
    elec = electrostatics.ElectrostaticParams(9e15, 0.36, 12.9, 0.75)
    stark = electrostatics.StarkCoefficients(-0.009, -0.015)
    device = cqed.CqedParams(0.0, 0.0, 2 * math.pi * 20, 250.0, 100.0)

    tracer = Tracer(modules)
    with tracer.installed(), tracer.op_span(0):
        ratio = fitting.dc_contrast(elec, stark, device, 10.0)
    assert fitting.voltage_to_detuning is original
    assert ratio == fitting.dc_contrast(elec, stark, device, 10.0)

    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("electrostatics.voltage_to_detuning") == 2
    assert names.count("cqed.reflectivity_at") == 2
    assert names[0] == "op" and list(tracer.parent) == [-1, 0, 0, 0, 0]
    assert tracer.counts["cqed.points"] == 2


def test_solver_screen_drops_failed_solves_and_keeps_every_other_op():
    from run import screen_solver_inputs

    fails = {"b": "OverflowError", "c": "exit 2"}
    ops = [_op("fit_spectrum_481", "a"), _op("fit_spectrum_481", "b"),
           _op("stark", "c"), _op("fit_contrast", "d")]
    runs = []

    class Workload:
        def run(self, op):
            runs.append(op.key)
            return _outcome("d-" + op.key, fails.get(op.key))

    kept, screen = screen_solver_inputs(Workload(), ops)
    assert [op.key for op in kept] == ["a", "c", "d"]   # stark failure is not screened
    assert runs == ["a", "b", "d"]                       # only solver ops are run
    assert (screen.attempted, screen.failed, screen.correct) == (3, 1, True)
    assert screen.reasons == {"fit_spectrum_481: OverflowError": 1}
