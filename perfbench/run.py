"""qdswitch benchmark.

    python3 perfbench/run.py --workload cli_paper --seed 1 --seconds 30 --trace 0

Run from the root of a qdswitch checkout; the program under test is the
checkout's own ``src/qdswitch``.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import Tally, beyond, environment, fail_ratio, percentile

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUPS = 5                    # set-ups per run; setup_s is their median
# Host-speed references.  Reported times are scaled to a host on which the
# reference takes REF_MS (see perfbench/README.md, "Host noise").  CLI ops
# are mostly interpreter start-up, so their reference is a fresh interpreter
# that imports numpy; in-process fits are Python-level loops over small numpy
# arrays, so theirs is REF_KERNEL_STEPS steps of such a loop.  Neither runs
# any qdswitch code.  Both tables are keyed by Workload.in_process.
REF_CODE = "import numpy"
REF_KERNEL_STEPS = 600
REF_MS = {False: 100.0, True: 10.0}
REF_EVERY_S = {False: 1.0, True: 0.25}
IMPORT_PROBES = 5             # fresh-interpreter pairs behind cli.import_ms
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description="qdswitch benchmark")
    p.add_argument("--workload", required=True, choices=["cli_paper", "switch_long", "fit_batch"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def import_program():
    """Import qdswitch from this checkout's src/, never from elsewhere.
    Modules that load numpy or qdswitch (tracing, workloads) are imported
    only after this has run."""
    src = ROOT / "src"
    if not (src / "qdswitch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qdswitch package under {src}")
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(src))
    import qdswitch
    if Path(qdswitch.__file__).resolve().parent != (src / "qdswitch").resolve():
        raise SystemExit(f"perfbench: imported qdswitch from {qdswitch.__file__}")


def screen_solver_inputs(wl, ops: list) -> tuple[list, Tally]:
    """Run each nonlinear-solve op once, untimed, and keep it in the op
    cycle only if it passes.

    A solve that fails here (an LM trial step that raises, no convergence,
    truth missed) is the known solver defect: it is counted in the returned
    Tally, which the run reports as the defect rate of its seeded inputs,
    and the timed ops leave it out, so that the workload's ops do not fail.
    Every other op stays in the cycle whatever happens; its failures count
    as failed ops."""
    from workloads import is_solver

    screen, kept = Tally(), []
    for op in ops:
        if is_solver(op.kind):
            outcome = wl.run(op)
            screen.record(op, outcome, solver=True)
            if outcome.failure is not None:
                continue
        kept.append(op)
    if not kept:
        raise SystemExit("perfbench: every op failed the solver screen")
    return kept, screen


def screen_record(screen: Tally) -> dict:
    return {"attempted": screen.attempted, "failed": screen.failed,
            "fail_ratio": fail_ratio(screen.attempted, screen.failed)
            if screen.attempted else 0.0,
            "failure_reasons": screen.reasons}


def run_untraced(wl, workdir: Path, seconds: float) -> tuple[dict, Tally, dict]:
    """Closed loop over the op cycle until op wall times sum to seconds.

    The first set-up makes the inputs the timed ops use; the others repeat
    it into a side directory at even points of the timed phase, so the
    median set-up time samples the host over the whole run.  The host
    reference is timed before the first set-up, then every REF_EVERY_S of
    op time and once after the last op.  Each op and set-up is scaled by
    REF_MS over the reference interpolated, in op time, between the
    references timed before and after it.  The unscaled wall times are
    kept."""
    import numpy as np
    from workloads import is_solver

    nominal, every = REF_MS[wl.in_process], REF_EVERY_S[wl.in_process]
    refs = [reference_ms(wl)]
    ref_at = [0.0]                              # op time (s) when each was timed
    setups: list[tuple[float, float]] = []      # (wall s, op time s)
    busy = 0.0

    def timed_setup(base: Path):
        t0 = time.perf_counter()
        ops = wl.setup(base)
        wl.run(ops[0])                          # untimed warm-up op
        setups.append((time.perf_counter() - t0, busy))
        return ops

    ops, screen = screen_solver_inputs(wl, timed_setup(workdir / "ops"))
    more_setups = [seconds * k / SETUPS for k in range(1, SETUPS)]
    tally = Tally()
    times: list[tuple[float, float]] = []       # (wall ms, op time s at its middle)
    by_kind: dict[str, list[float]] = {}
    while busy < seconds:
        if busy >= len(refs) * every:
            refs.append(reference_ms(wl))
            ref_at.append(busy)
        if more_setups and busy >= more_setups[0]:
            more_setups.pop(0)
            timed_setup(workdir / "setup")
        op = ops[len(times) % len(ops)]
        outcome = wl.run(op)
        times.append((outcome.ms, busy + outcome.ms / 2e3))
        busy += outcome.ms / 1e3
        by_kind.setdefault(op.kind, []).append(outcome.ms)
        tally.record(op, outcome, is_solver(op.kind))
    for _ in more_setups:
        timed_setup(workdir / "setup")
    refs.append(reference_ms(wl))
    ref_at.append(busy)

    def summary(op_ms: list[float], setup_s: list[float]) -> dict:
        return {"setup_s": statistics.median(setup_s),
                "op_ms_p50": percentile(op_ms, 50),
                "op_ms_p90": percentile(op_ms, 90),
                "ops_per_s": 1e3 * len(op_ms) / sum(op_ms)}

    wall_ms = [t for t, _ in times]
    op_ref = np.interp([at for _, at in times], ref_at, refs)
    setup_ref = np.interp([at for _, at in setups], ref_at, refs)
    metrics = summary([t * nominal / r for t, r in zip(wall_ms, op_ref)],
                      [t * nominal / r for (t, _), r in zip(setups, setup_ref)])
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    extra = {
        "wall": summary(wall_ms, [t for t, _ in setups]),
        "ref_ms_median": statistics.median(refs),
        "ref_ms": refs,
        "ref_at_s": ref_at,
        "fail_ratio": fail_ratio(tally.attempted, tally.failed),
        "samples": len(times),
        "samples_beyond_p90": beyond(wall_ms, 90),
        "setup_s_all": [t for t, _ in setups],
        "op_ms_all": wall_ms,
        "op_ref_ms_all": op_ref.tolist(),
        "op_ms_p50_by_kind": {k: percentile(v, 50) for k, v in sorted(by_kind.items())},
        "solver_screen": screen_record(screen),
    }
    return metrics, tally, extra


def reference_ms(wl) -> float:
    if not wl.in_process:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", REF_CODE], env=wl.child_env, check=True)
        return 1e3 * (time.perf_counter() - t0)
    import numpy as np
    grid = np.linspace(-150.0, 150.0, 481)
    t0 = time.perf_counter()
    for k in range(REF_KERNEL_STEPS):
        e = 1j * (3.0 + 1e-3 * k - grid) + 17.0
        d = 1j * (1.0 - grid) + 25.0 + 400.0 / e
        float(np.sum(np.abs(25.0 / d) ** 2))
    return 1e3 * (time.perf_counter() - t0)


def import_ms(env: dict) -> float:
    """Fresh-interpreter `import qdswitch.cli` minus a bare interpreter."""
    diffs = []
    for _ in range(IMPORT_PROBES):
        pair = []
        for code in ("pass", "import qdswitch.cli"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            pair.append(time.perf_counter() - t0)
        diffs.append(1e3 * (pair[1] - pair[0]))
    return statistics.median(diffs)


def run_traced(wl, workdir: Path, seconds: float, spans_path: Path) -> tuple[dict, Tally, dict]:
    """Repeated passes over a fixed op list.  Each op runs in this process
    untraced, then traced.  Counts come from the first pass (outputs are
    digest-checked, so every pass does the same work); times are medians
    over passes.  The first pass's spans are written when the run ends."""
    import numpy as np
    from tracing import Tracer, layer_metrics
    from workloads import MODULES, is_solver

    ops = wl.setup(workdir / "ops")
    wl.run(ops[0])                          # untimed warm-up op
    ops, screen = screen_solver_inputs(wl, ops)
    layer = {"cli.import_ms": import_ms(wl.child_env)}
    tally = Tally()
    passes, overheads, first = [], [], None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        tracer = Tracer(MODULES)
        plain_ms = traced_ms = 0.0
        for op_id, op in enumerate(ops):
            outcome = wl.run(op, in_process=True)
            tally.record(op, outcome, is_solver(op.kind))
            plain_ms += outcome.ms
            with tracer.installed():
                outcome = wl.run(op, in_process=True,
                                 timed=lambda: tracer.op_span(op_id))
            tally.record(op, outcome, is_solver(op.kind))
            traced_ms += outcome.ms
        first = first or tracer
        passes.append(layer_metrics(tracer, len(ops)))
        overheads.append(100.0 * (traced_ms / plain_ms - 1.0))

    np.savez(spans_path, names=np.array(first.names), **first.arrays())
    for key in passes[0]:
        values = [p[key] for p in passes]
        layer[key] = statistics.median(values) if key.endswith("_ms") else values[0]
    layer["trace.overhead_pct"] = statistics.median(overheads)
    screened = screen_record(screen)
    layer["fitting.screen_fail_ratio"] = screened["fail_ratio"]
    extra = {"passes": len(passes), "ops_per_pass": len(ops), "solver_screen": screened,
             "inprocess_ms_per_op": statistics.median(p["op.inprocess_ms"] for p in passes),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return layer, tally, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(ROOT, np.__version__)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = OUT_DIR / "work" / args.workload
    wl = WORKLOADS[args.workload](ROOT, args.seed, child_env())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, tally, extra = run_traced(wl, workdir, args.seconds,
                                               results / f"{stem}-spans.npz")
        else:
            metrics, tally, extra = run_untraced(wl, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": metrics, **extra,
              "failure_reasons": tally.reasons, "digests": tally.kind_digests()}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, unit in units.items():
        print(f"  {name:26s} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"  host reference median {extra['ref_ms_median']:.6g} ms (scaled to {REF_MS[wl.in_process]:g} ms); "
              "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in extra["wall"].items()))
        print(f"  {'fail_ratio':26s} {extra['fail_ratio']:>14.6g} ({tally.failed}/{tally.attempted})")
        print(f"  op_ms_p90 over {extra['samples']} samples, {extra['samples_beyond_p90']} beyond it")
    screen = extra["solver_screen"]
    print(f"  solver screen: {screen['failed']} of {screen['attempted']} seeded solver inputs "
          "failed (known solver defect) and are left out of the timed ops")
    for reason, n in sorted(screen["failure_reasons"].items()):
        print(f"    screened out {n}x  {reason}")
    for reason, n in sorted(tally.reasons.items()):
        print(f"  failed {n}x  {reason}")
    for kind, digest in tally.kind_digests().items():
        print(f"  sha256 {kind:20s} {digest}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
