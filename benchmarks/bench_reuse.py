"""Cross-trial reuse benchmark (redundant epochs, speedup, verify cost).

Three questions, all from the stage-cache tentpole:

1. **How much redundant work does prefix reuse eliminate?**  The same
   staged grid — 3 optimizers x ``num_epochs`` {4, 8, 12} — runs with
   the cache off and on.  Stages count every epoch they actually train
   (:func:`repro.hpo.stages.executed_epochs`), and a cache hit skips the
   stage body entirely, so the on/off delta is exactly the redundant
   work: 72 epochs monolithic vs 36 with shared prefixes (each
   optimizer's 4- and 8-epoch trials ride the 12-epoch chain), a 50 %
   reduction against the 30 % acceptance floor.
2. **Does that translate to wall clock?**  ``epoch_sleep_s`` charges a
   real per-epoch cost, so the sleep-dominated makespan ratio tracks
   the epoch reduction and is stable on shared runners.
3. **What does hit-time verification cost?**  Every hit re-hashes the
   entry against its ``.sum`` sidecar before trusting it; the cache
   accounts that wall time (``verify_time_s``), reported as a
   percentage of the cached run and bounded by
   ``reuse_overhead_pct_max``.

The off/on pair runs ``batch_size=1``, so a trial's stages publish
before the next trial consults the cache.  A third, *concurrent* arm
submits the whole grid at once (``batch_size=None``, default
``cache_lease_wait_s=0``): duplicates of a stage still in flight
coalesce onto its leader and resolve from its verified publication, so
the same epoch reduction must hold without sequential submission.

Two entry points:

* ``pytest benchmarks/bench_reuse.py`` — CI perf-smoke mode.  One
  seed; fails if the cached grid diverges from the cache-off answer,
  if the epoch reduction drops below ``reuse_epoch_reduction_min``, if
  the speedup drops below ``reuse_speedup_min``, if verify overhead
  exceeds ``reuse_overhead_pct_max``, or if any hit was returned
  unverified (must be exactly zero).  The concurrent arm must match the
  answers and clear the epoch-reduction floor too.
* ``python benchmarks/bench_reuse.py`` — full run (three seeds) that
  writes the machine-readable ``BENCH_reuse.json`` to the repo root.
"""

import json
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from conftest import banner

from repro.hpo import PyCOMPSsRunner, parse_search_space
from repro.hpo.stages import StagePlan, executed_epochs, reset_epoch_counter
from repro.runtime.config import RuntimeConfig
from repro.simcluster.machines import local_machine

REPO_ROOT = Path(__file__).resolve().parent.parent
THRESHOLDS_PATH = Path(__file__).resolve().parent / "perf_thresholds.json"
OUTPUT_PATH = REPO_ROOT / "BENCH_reuse.json"

SEEDS = (11, 23, 37)
WORKERS = 4
BLOCK_EPOCHS = 4
EPOCH_SLEEP_S = 0.01


def load_thresholds() -> dict:
    with open(THRESHOLDS_PATH) as fh:
        return json.load(fh)


def prefix_redundant_space():
    """The paper-style grid whose epoch axis makes trials share prefixes."""
    return parse_search_space(
        {
            "optimizer": ["Adam", "SGD", "RMSprop"],
            "num_epochs": [4, 8, 12],
            "epoch_sleep_s": [EPOCH_SLEEP_S],
        }
    )


def run_grid(root: Path, reuse: bool, batch_size=1) -> dict:
    reset_epoch_counter()
    runner = PyCOMPSsRunner(
        "grid",
        space=prefix_redundant_space(),
        study_name="reuse-grid",
        stage_plan=StagePlan(block_epochs=BLOCK_EPOCHS),
        batch_size=batch_size,
        runtime_config=RuntimeConfig(
            cluster=local_machine(WORKERS),
            reuse_cache=reuse,
            cache_dir=str(root / "cache") if reuse else None,
        ),
    )
    t0 = time.perf_counter()
    study = runner.run()
    elapsed = time.perf_counter() - t0
    epochs = executed_epochs()
    reset_epoch_counter()
    return {
        "wall_s": round(elapsed, 3),
        "epochs_trained": epochs,
        "n_complete": len(study.completed()),
        "best_config": study.best_trial().config,
        "best_val_accuracy": study.best_trial().val_accuracy,
        "accuracies": {
            t.trial_id: t.val_accuracy for t in study.completed()
        },
        "reuse": study.metadata.get("reuse", {}),
    }


def compare(seed: int) -> dict:
    # The grid is deterministic — seed only varies the tmp dirs — but
    # running it per seed gives the full report a jitter estimate.
    with TemporaryDirectory(prefix=f"reuse-off-{seed}-") as off_dir:
        off = run_grid(Path(off_dir), reuse=False)
    with TemporaryDirectory(prefix=f"reuse-on-{seed}-") as on_dir:
        on = run_grid(Path(on_dir), reuse=True)
    with TemporaryDirectory(prefix=f"reuse-concurrent-{seed}-") as cc_dir:
        concurrent = run_grid(Path(cc_dir), reuse=True, batch_size=None)

    def reduction(run: dict) -> float:
        trained = run["epochs_trained"] / max(1, off["epochs_trained"])
        return round(1.0 - trained, 3)

    verify_s = on["reuse"].get("verify_time_s", 0.0)
    return {
        "seed": seed,
        "cache_off": off,
        "cache_on": on,
        "cache_on_concurrent": concurrent,
        "same_best": on["best_config"] == off["best_config"]
        and on["best_val_accuracy"] == off["best_val_accuracy"],
        "same_accuracies": on["accuracies"] == off["accuracies"],
        "concurrent_same_accuracies": (
            concurrent["accuracies"] == off["accuracies"]
        ),
        "epoch_reduction": reduction(on),
        "concurrent_epoch_reduction": reduction(concurrent),
        "speedup": round(off["wall_s"] / max(1e-9, on["wall_s"]), 3),
        "hit_verify_overhead_pct": round(
            100.0 * verify_s / max(1e-9, on["wall_s"]), 3
        ),
    }


def report(data: dict) -> None:
    banner(f"Cross-trial reuse — seed {data['seed']}")
    off = data["cache_off"]
    print(
        f"        cache off: {off['wall_s']:.3f} s, "
        f"{off['epochs_trained']} epochs trained"
    )
    for name, arm in (("cache on", "cache_on"),
                      ("concurrent", "cache_on_concurrent")):
        run = data[arm]
        stats = run["reuse"]
        print(
            f"{name:>17}: {run['wall_s']:.3f} s, "
            f"{run['epochs_trained']} epochs trained  "
            f"({stats.get('hits', 0)} hits / {stats.get('misses', 0)} misses"
            f", {stats.get('lease_waits', 0)} lease waits)"
        )
    print(
        f"  epoch reduction: {100 * data['epoch_reduction']:.0f}% "
        f"(concurrent {100 * data['concurrent_epoch_reduction']:.0f}%)   "
        f"speedup: x{data['speedup']}   "
        f"hit-verify overhead: {data['hit_verify_overhead_pct']:.2f}% "
        f"of cached wall"
    )


def test_reuse_smoke():
    """CI perf-smoke: same answer, >=30% fewer epochs, bounded verify."""
    thresholds = load_thresholds()
    data = compare(SEEDS[0])
    report(data)
    assert data["same_best"], data
    assert data["same_accuracies"], data
    assert data["concurrent_same_accuracies"], data
    for arm in ("cache_on", "cache_on_concurrent"):
        stats = data[arm]["reuse"]
        assert stats["unverified_hits"] == 0, stats
    for key in ("epoch_reduction", "concurrent_epoch_reduction"):
        assert data[key] >= thresholds["reuse_epoch_reduction_min"], data
    assert data["speedup"] >= thresholds["reuse_speedup_min"], data
    assert (
        data["hit_verify_overhead_pct"]
        <= thresholds["reuse_overhead_pct_max"]
    ), data


def main() -> None:
    results = []
    for seed in SEEDS:
        data = compare(seed)
        report(data)
        results.append(data)
    summary = {
        "benchmark": "cross_trial_reuse",
        "workload": (
            f"staged grid: 3 optimizers x num_epochs (4, 8, 12), "
            f"block_epochs={BLOCK_EPOCHS}, epoch_sleep_s={EPOCH_SLEEP_S}, "
            f"batch_size=1 on local_machine({WORKERS}); cache off vs on, "
            "plus cache on with the whole grid submitted at once "
            "(batch_size=None)"
        ),
        "runs": results,
        "worst_epoch_reduction": min(r["epoch_reduction"] for r in results),
        "worst_concurrent_epoch_reduction": min(
            r["concurrent_epoch_reduction"] for r in results
        ),
        "worst_speedup": min(r["speedup"] for r in results),
        "worst_hit_verify_overhead_pct": max(
            r["hit_verify_overhead_pct"] for r in results
        ),
        "total_unverified_hits": sum(
            r[arm]["reuse"].get("unverified_hits", 0)
            for r in results
            for arm in ("cache_on", "cache_on_concurrent")
        ),
    }
    OUTPUT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")


if __name__ == "__main__":
    main()
