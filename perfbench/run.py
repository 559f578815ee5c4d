"""Repository benchmark: four closed-loop workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

``--workload`` is one of ``paper_grid``, ``task_stream``,
``staged_sweep``, ``sim_chaos`` or ``all`` (every workload, one process).
With ``--trace 0`` the run reports the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
units and reports the per-layer metrics, derived from spans recorded
around the benchmark's calls into the program and from the counters the
program returns.  Each run checks the program's outputs; a failed check
makes the run exit with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A human-readable
table (median, tail percentile and sample count per metric) comes before
it, and the full record — host fields, samples, checks and, for traced
runs, every span — is written under ``.bench_out/``.  Inputs are made
from ``--seed`` only; temporary files live under ``.bench_out/`` too.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per executor slot, set before numpy is imported:
# unpinned BLAS threads oversubscribe the two slots' cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".bench_out")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


#: What the benchmark imports before its first workload.
IMPORT_MODULES = ("numpy", "repro.hpo", "repro.runtime.runtime", "repro.simcluster")
#: Import timings per run: this process's own, then fresh interpreters.
IMPORT_REPEATS = 3


def import_program() -> list:
    """Import the program from ``src/`` and time the import.

    The first import is this process's; the others run in fresh
    interpreters (each waited for).  Each time is normalised by the
    calibration loops timed right before and after it.
    """
    from measure import CALIB_REF_MS, calibrate_ms

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {src}")
    sys.path.insert(0, str(src))
    probe = (f"import time; t = time.perf_counter(); import {', '.join(IMPORT_MODULES)}; "
             "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for i in range(IMPORT_REPEATS):
        before = calibrate_ms()
        if i == 0:
            t0 = time.perf_counter()
            for module in IMPORT_MODULES:
                importlib.import_module(module)
            seconds = time.perf_counter() - t0
        else:
            done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                  capture_output=True, text=True, timeout=120)
            seconds = float(done.stdout.strip().splitlines()[-1])
        scale = (before + calibrate_ms()) / 2.0 / CALIB_REF_MS
        times.append(seconds / scale)
    return times


# ----------------------------------------------------------------------
def end_to_end(run, import_s: float) -> dict:
    from measure import rss_peak_mb

    s = run.samples
    return {
        "throughput_per_s": s.median("throughput_per_s"),
        "slot_utilisation": s.median("slot_utilisation"),
        "rss_peak_mb": rss_peak_mb(),
        "setup_s": import_s + s.median("setup_once_s"),
    }


def per_layer(run):
    """Per-layer metrics of a traced run, plus the self-time detail."""
    layer, samples, spans = run.layer, run.samples, run.spans
    out = {name: layer.median(name) for name in layer.values}
    out["ml.body_ms_p50"] = layer.median("ml.body_ms")
    out["ml.epoch_ms_p50"] = layer.median("ml.epoch_ms")
    out["submit.us_per_task_p50"] = layer.median("submit.us")
    out["wait.us_per_task_p50"] = layer.median("wait.us")
    out["host.calib_ms"] = samples.median("host.calib_ms")
    # Units per second at the reference host speed, untraced vs traced.
    plain = samples.median("units_per_s")
    traced = samples.median("traced_units_per_s")
    out["trace.overhead_pct"] = 100.0 * (plain / traced - 1.0) if traced else 0.0
    wall = spans.total_s("unit")
    selfs = spans.self_times_s()
    out["trace.self_sum_pct"] = 100.0 * sum(selfs.values()) / wall if wall else 0.0
    for name, value in selfs.items():
        out["self_pct." + ("client" if name == "unit" else name)] = 100.0 * value / wall
    run.check(
        f"{run.name}: span self-times sum to the traced wall within 10%",
        abs(out["trace.self_sum_pct"] - 100.0) <= 10.0,
        f"{out['trace.self_sum_pct']:.2f}% of {wall:.3f} s",
    )
    return out, {"self_s": selfs, "traced_wall_s": wall}


#: Issue-level names the table prints for each workload's sample series
#: (label, sample key, unit).  ``*_per_s`` rows are raw host rates; the
#: ``@ref`` rows are normalised to the reference host speed and are what
#: ``throughput_per_s`` reports.
def _rate_rows(label: str):
    return [(label, "throughput_raw_per_s", "1/s"),
            (label + "@ref", "throughput_per_s", "1/s")]


TABLE = {
    "paper_grid": _rate_rows("trials_per_s") + [("study_s", "study_s", "s")],
    "task_stream": _rate_rows("tasks_per_s"),
    "staged_sweep": _rate_rows("trials_per_s") + [
        ("study_s", "study_s", "s"), ("resume_s", "resume_s", "s")],
    "sim_chaos": _rate_rows("trials_per_s") + [
        ("study_s", "study_s", "s"),
        ("virtual_makespan_s", "virtual_makespan_s", "s")],
}
COMMON = [("slot_utilisation", "slot_utilisation", "frac"),
          ("setup_once_s", "setup_once_s", "s"),
          ("host.calib_ms", "host.calib_ms", "ms")]


def print_table(run, metrics: dict, units: dict, import_s: float) -> None:
    from measure import tail

    print(f"== {run.name}  seed={run.seed}  units={run.units}  "
          f"trace={int(run.trace)}  attempted={run.attempted}  failed={run.failed}")
    print(f"   {'series':<24} {'unit':<6} {'median':>12} {'tail':>20} {'n':>6}")
    for label, key, unit in TABLE[run.name] + COMMON:
        vals = run.samples.values.get(key)
        if not vals:
            continue
        t = tail(vals)
        tail_text = "-" if t["tail"] is None else f"p{t['tail_pct']:.1f} {t['tail']:.6g}"
        print(f"   {label:<24} {unit:<6} {t['median']:>12.6g} {tail_text:>20} {t['n']:>6}")
    failed = run.failed / run.attempted if run.attempted else 0.0
    print(f"   {'failed_frac':<24} {'frac':<6} {failed:>12.6g} {'-':>20} {run.attempted:>6}")
    print(f"   {'import_s':<24} {'s':<6} {import_s:>12.6g}")
    print("   reported:")
    for name, value in metrics.items():
        print(f"   {name:<24} {units[name]:<6} {value:>12.6g}")
    for name, c in run.checks.items():
        print(f"   check {'ok  ' if c['ok'] else 'FAIL'} {name}"
              + ("" if c["ok"] else f": {c['detail']}"))


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict,
            import_s: float, scratch: Path):
    import workloads
    from measure import reset_rss_peak

    reset_rss_peak()
    run = workloads.Run(name, seed, seconds, trace, scratch)
    workloads.WORKLOADS[name](run)
    if trace:
        values, detail = per_layer(run)
        wanted = spec["per_layer"]
    else:
        values, detail = end_to_end(run, import_s), {}
        wanted = spec["end_to_end"]
    # A layer the workload does not exercise reports 0.
    metrics = {m["name"]: float(values.get(m["name"], 0.0)) for m in wanted}
    return run, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    import_times = import_program()
    import_s = statistics.median(import_times)

    from measure import host_fields

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    host = host_fields()
    all_ok, attempted, failed, combined = True, 0, 0, {}
    try:
        for name in names if args.workload == "all" else [args.workload]:
            run, metrics, detail = run_one(
                name, args.seed, seconds, bool(args.trace), spec, import_s, scratch)
            print_table(run, metrics, units, import_s)
            tag = f"{name}-seed{args.seed}-trace{args.trace}"
            record = {
                "workload": name, "seed": args.seed, "seconds": seconds,
                "trace": args.trace, "units": run.units, "host": host,
                "import_s": import_times, "metrics": metrics, "checks": run.checks,
                "samples": run.samples.values, "layer_samples": run.layer.values,
                **detail,
            }
            with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            if args.trace:
                run.spans.write(OUT_DIR / f"{tag}.spans.json",
                                {"workload": name, "seed": args.seed})
            all_ok &= run.correct
            attempted += run.attempted
            failed += run.failed
            prefix = "" if args.workload != "all" else name + "."
            combined.update({prefix + k: {"value": v, "unit": units[k]}
                             for k, v in metrics.items()})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"host: {json.dumps(host)}")
    out = {
        "correct": all_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }
    print(json.dumps(out))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
