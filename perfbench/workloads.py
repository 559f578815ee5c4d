"""The four benchmark workloads.

Every workload is a closed loop driven from one process: the client
submits a unit of work (a study, or a session of task waves), waits for
all of it, checks the outputs and only then starts the next unit, until
the run's time is up.  Local runs use at most 2 executor slots.

A workload records, per unit, the samples its metrics are medians of;
with tracing on it alternates untraced and traced units, so the traced
ones yield spans and the pair yields the tracing overhead.  Layers are
timed only from outside: around task calls, ``compss_wait_on`` /
``runtime.wait_on``, ``runtime.submit``, ``PyCOMPSsRunner.run``, the
algorithm's ``ask``/``tell`` (through :class:`TimedAlgorithm`), the task
bodies, ``Sequential.fit`` epochs (through a callback) and the
``COMPSsRuntime(resume_from=...)`` session.  Everything else is read from
the counters the public API returns.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional

from measure import CALIB_REF_MS, Samples, calibrate_ms, rss_mb
from spans import SpanRecorder

#: Executor slots of the local workloads (this is also the BLAS pinning
#: unit: one BLAS thread per slot).
LOCAL_SLOTS = 2


class Run:
    """Everything one workload run measured and checked."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.samples = Samples()
        #: Per-layer samples of the traced units only.
        self.layer = Samples()
        self.spans = SpanRecorder(enabled=False)
        #: check name -> {"ok", "detail"}; the first failure is kept.
        self.checks: Dict[str, Dict[str, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self._calib: Optional[float] = None
        #: (sample name, value, exponent of the host-speed scale) waiting
        #: for the calibration that closes their interval.
        self._pending: List[tuple] = []

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        if name not in self.checks or (not ok and self.checks[name]["ok"]):
            self.checks[name] = {"ok": bool(ok), "detail": str(detail)}

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["ok"] for c in self.checks.values())

    def add_rate(self, per_s: float, name: str = "throughput") -> None:
        """Record a rate as ``<name>_raw_per_s``; the next calibration
        adds it, normalised, as ``<name>_per_s``."""
        self.samples.add(f"{name}_raw_per_s", per_s)
        self._pending.append((f"{name}_per_s", per_s, 1))

    def add_time(self, seconds: float, name: str) -> None:
        """Record a duration as ``<name>_raw_s``; the next calibration
        adds it, normalised, as ``<name>_s``."""
        self.samples.add(f"{name}_raw_s", seconds)
        self._pending.append((f"{name}_s", seconds, -1))

    def recalibrate(self) -> None:
        """Time the calibration loop and normalise the pending samples.

        A rate measured between two calibrations is scaled by their mean
        over ``CALIB_REF_MS`` (a duration by its inverse): what the host
        would give at the reference speed.  The shared host drifts between
        a fast and a slow state for seconds at a time, and the loop slows
        with it.
        """
        with self.spans.span("host.calib"):
            calib = calibrate_ms()
        self.samples.add("host.calib_ms", calib)
        if self._calib is not None:
            scale = (self._calib + calib) / 2.0 / CALIB_REF_MS
            for name, value, exponent in self._pending:
                self.samples.add(name, value * scale ** exponent)
        self._pending.clear()
        self._calib = calib

    def loop(self, unit: Callable[[int, bool], None], min_units: int = 3) -> None:
        """Run units until ``seconds`` pass (at least ``min_units``).

        With tracing, even units run untraced and odd ones traced, so
        each traced unit has an untraced neighbour to compare with; at
        least two of each are run.
        """
        if self.trace:
            min_units = max(min_units, 4)
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < min_units or time.perf_counter() < deadline:
            # Cyclic garbage of the previous unit's runtime (its collector
            # is frozen while a runtime is active) goes before timing.
            gc.collect()
            self.spans.enabled = False
            self.recalibrate()
            traced = self.trace and i % 2 == 1
            self.spans.enabled = traced
            self.spans.run_id = i
            t0 = time.perf_counter()
            with self.spans.span("unit"):
                unit(i, traced)
            wall = time.perf_counter() - t0
            self.add_rate(1.0 / wall, "traced_units" if traced else "units")
            self.samples.add("rss_after_unit_mb", rss_mb())
            i += 1
        self.spans.enabled = False
        self.recalibrate()
        self.units = i

    def tmpdir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))


class TimedAlgorithm:
    """Delegates to a :class:`SearchAlgorithm`, timing ``ask``/``tell``."""

    def __init__(self, inner, spans: SpanRecorder) -> None:
        self.inner = inner
        self.spans = spans
        self.rounds = 0

    def ask(self, n=None):
        self.rounds += 1
        with self.spans.span("hpo.ask"):
            return self.inner.ask(n)

    def tell(self, trial) -> None:
        with self.spans.span("hpo.tell"):
            self.inner.tell(trial)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@contextmanager
def epoch_spans(spans: SpanRecorder):
    """Record every ``Sequential.fit`` epoch as an ``ml.epoch`` span."""
    from repro.ml.callbacks import Callback
    from repro.ml.model import Sequential

    class EpochSpan(Callback):
        def on_epoch_begin(self, epoch, logs=None):
            self.idx = spans.open("ml.epoch")

        def on_epoch_end(self, epoch, logs):
            spans.close(self.idx)

    original = Sequential.fit

    def fit(self, *args, callbacks=None, **kwargs):
        return original(self, *args, callbacks=[EpochSpan(), *(callbacks or [])],
                        **kwargs)

    Sequential.fit = fit
    try:
        yield
    finally:
        Sequential.fit = original


def instrument_runtime(runtime, spans: SpanRecorder) -> None:
    """Time the runtime's ``submit`` and ``wait_on`` from outside."""
    if spans.enabled:
        runtime.submit = spans.wrap("submit", runtime.submit)
        runtime.wait_on = spans.wrap("wait", runtime.wait_on)


def run_study(run: Run, runtime, runner, algorithm: TimedAlgorithm):
    """``runner.run()`` under an ``hpo.run`` span; returns (study, wall)."""
    spans = run.spans
    with spans.span("hpo.run") as idx:
        spans.cross_parent = idx
        t0 = time.perf_counter()
        try:
            study = runner.run()
        finally:
            spans.cross_parent = -1
        wall = time.perf_counter() - t0
    return study, wall


def record_study_layers(run: Run, traced: bool, runtime, algorithm, study_wall,
                        slots: float, makespan: Optional[float] = None) -> float:
    """Executor/dispatch/hpo counters shared by the study workloads.

    Returns the slot utilisation: busy slot-seconds from the runtime's own
    trace records over ``slots`` x the study's (wall or virtual) time.
    """
    records = runtime.tracer.records
    busy = sum(r.duration * max(1, len(r.cpu_ids)) for r in records)
    span = makespan if makespan is not None else study_wall
    util = busy / (slots * span)
    if traced:
        layer = run.layer
        dispatch = runtime.analysis().dispatch()
        layer.add("executor.attempts", len(records))
        layer.add("executor.busy_s", busy)
        layer.add("executor.idle_slot_s", slots * span - busy)
        layer.add("dispatch.rounds", dispatch["rounds"])
        layer.add("dispatch.avg_batch_size", dispatch["avg_batch_size"])
        layer.add("dispatch.probes_per_task",
                  dispatch["placement_probes"] / max(1, dispatch["placed"]))
        layer.add("dispatch.wakes", dispatch["wakes"])
        layer.add("graph.freed_tasks", runtime.graph.freed_tasks)
        layer.add("graph.live_tasks_end", runtime.graph.n_tasks)
        layer.add("hpo.rounds", algorithm.rounds)
        layer.add("hpo.ask_tell_s", _unit_total(run, ("hpo.ask", "hpo.tell")))
    return util


def _unit_total(run: Run, names) -> float:
    """Summed duration (s) of this unit's spans with one of ``names``."""
    rid = run.spans.run_id
    return sum(
        s[2] - s[1] for s in run.spans.spans if s[4] == rid and s[0] in names
    ) / 1e9


def _unit_durations_ms(run: Run, name: str) -> List[float]:
    rid = run.spans.run_id
    return [(s[2] - s[1]) / 1e6 for s in run.spans.spans
            if s[4] == rid and s[0] == name]


def record_body_layers(run: Run) -> None:
    """``ml.*`` and per-call submit/wait samples of the traced unit."""
    bodies = _unit_durations_ms(run, "ml.body")
    run.layer.add("ml.body_s", sum(bodies) / 1e3)
    run.layer.extend("ml.body_ms", bodies)
    run.layer.extend("ml.epoch_ms", _unit_durations_ms(run, "ml.epoch"))
    run.layer.extend("submit.us", [1e3 * v for v in _unit_durations_ms(run, "submit")])
    run.layer.extend("wait.us", [1e3 * v for v in _unit_durations_ms(run, "wait")])


def warm_dataset(n_train: int, n_test: int, data_seed: int) -> None:
    """Generate (and memoise) the MNIST-like arrays the trials will read."""
    from repro.ml.datasets import load_mnist_like
    from repro.ml.datasets.cache import cached_dataset, clear_dataset_cache

    clear_dataset_cache()
    cached_dataset(load_mnist_like, n_train=n_train, n_test=n_test, seed=data_seed)


# ======================================================================
# paper_grid
# ======================================================================
GRID_N_TRAIN = 500
GRID_N_TEST = 100
GRID_REFERENCE_SAMPLE = 3


def paper_grid(run: Run) -> None:
    """Listing-1 grid (3 optimisers x 3 epochs x 3 batch sizes), real CNNs.

    Epoch counts are the paper's {20, 50, 100} scaled to {1, 2, 4} so one
    grid trains in seconds.  Runtime defaults (tracing on, journal off)
    on the local executor with 2 thread slots.
    """
    from repro.hpo import GridSearch, PyCOMPSsRunner, parse_search_space, train_experiment
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.runtime import COMPSsRuntime
    from repro.simcluster.machines import local_machine

    space_spec = {
        "optimizer": ["Adam", "SGD", "RMSprop"],
        "num_epochs": [1, 2, 4],
        "batch_size": [32, 64, 128],
        "architecture": "cnn",
        "filters": 4,
        "n_train": GRID_N_TRAIN,
        "n_test": GRID_N_TEST,
        "data_seed": run.seed,
        "seed": run.seed,
    }
    # Inline reference answers for a seeded sample of the grid's configs.
    configs = GridSearch(parse_search_space(space_spec)).ask(None)
    sample = random.Random(run.seed).sample(configs, GRID_REFERENCE_SAMPLE)
    reference = [(c, train_experiment(c)["val_accuracy"]) for c in sample]
    first_accs: Dict[str, Dict[int, float]] = {}

    def unit(i: int, traced: bool) -> None:
        spans = run.spans
        with spans.span("setup"):
            t0 = time.perf_counter()
            warm_dataset(GRID_N_TRAIN, GRID_N_TEST, run.seed)
            runtime = COMPSsRuntime(RuntimeConfig(cluster=local_machine(LOCAL_SLOTS)))
            runtime.start()
            run.add_time(time.perf_counter() - t0, "setup_once")
        try:
            instrument_runtime(runtime, spans)
            algorithm = TimedAlgorithm(GridSearch(parse_search_space(space_spec)), spans)
            runner = PyCOMPSsRunner(
                algorithm, objective=spans.wrap("ml.body", train_experiment),
                study_name="paper-grid",
            )
            with epoch_spans(spans) if traced else nullcontext():
                study, wall = run_study(run, runtime, runner, algorithm)
            util = record_study_layers(run, traced, runtime, algorithm, wall, LOCAL_SLOTS)
        finally:
            with spans.span("runtime.stop"):
                runtime.stop()
        completed = study.completed()
        run.attempted += len(study.trials)
        run.failed += len(study.trials) - len(completed)
        run.samples.add("study_s", wall)
        run.add_rate(len(completed) / wall)
        run.samples.add("slot_utilisation", util)
        if traced:
            record_body_layers(run)
            run.layer.add("hpo.epochs_trained", sum(
                t.result.epochs_run for t in completed))

        accs = {t.trial_id: t.result.val_accuracy for t in completed}
        run.check("paper_grid: all 27 trials completed", len(completed) == 27,
                  f"{len(completed)} of {len(study.trials)}")
        by_config = [(t.config, t.result.val_accuracy) for t in completed]
        mismatch = [(c, acc) for c, acc in reference if (c, acc) not in by_config]
        run.check("paper_grid: sampled accuracies equal inline train_experiment",
                  not mismatch, mismatch)
        first_accs.setdefault("accs", accs)
        run.check("paper_grid: accuracies repeat across units", accs == first_accs["accs"])

    run.loop(unit)


# ======================================================================
# task_stream
# ======================================================================
STREAM_CORES = 16
STREAM_WAVE = 2000
STREAM_WAVES = 8
STREAM_FANIN_EVERY = 3


def task_stream(run: Run) -> None:
    """Waves of tiny tasks on the simulated executor, journal on, no spills.

    Each session starts a runtime with ``stream_completed`` and the
    write-ahead journal (``checkpoint_every=None``: lifecycle records
    only), pushes ``STREAM_WAVES`` closed-loop waves of ``STREAM_WAVE``
    tasks and stops.  Every third task adds two earlier futures of its
    wave, so the access processor resolves real dependencies.
    """
    from repro.pycompss_api import compss_wait_on, task
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.runtime import COMPSsRuntime
    from repro.simcluster import local_machine

    @task(returns=int)
    def inc(x):
        return x + 1

    @task(returns=int)
    def add(a, b):
        return a + b

    rng = random.Random(run.seed)
    waves = []
    for _ in range(STREAM_WAVES):
        # (kind, arg, arg) with "a" args indexing earlier tasks of the wave.
        plan, expect = [], []
        for j in range(STREAM_WAVE):
            if j >= 2 and j % STREAM_FANIN_EVERY == 2:
                a, b = rng.randrange(j), rng.randrange(j)
                plan.append((1, a, b))
                expect.append(expect[a] + expect[b])
            else:
                x = rng.randrange(1_000_000)
                plan.append((0, x, 0))
                expect.append(x + 1)
        waves.append((plan, expect))

    def duration(task, node, alloc):
        # Seeded virtual durations in [1, 2) s, so fan-in waits and
        # uneven tasks leave cores idle at the end of a wave.
        return 1.0 + ((task.task_id ^ run.seed) * 2654435761 % 1000) / 1000.0

    def submit_wave(plan, traced):
        futs = []
        if traced:
            # open/close rather than the context manager: this is the one
            # span per task, and the context manager would double its cost.
            spans = run.spans
            for kind, a, b in plan:
                idx = spans.open("submit")
                futs.append(add(futs[a], futs[b]) if kind else inc(a))
                spans.close(idx)
        else:
            for kind, a, b in plan:
                futs.append(add(futs[a], futs[b]) if kind else inc(a))
        return futs

    def unit(i: int, traced: bool) -> None:
        spans = run.spans
        journal_dir = run.tmpdir("stream-")
        cfg = RuntimeConfig(
            cluster=local_machine(STREAM_CORES),
            executor="simulated",
            execute_bodies=True,
            tracing=False,
            graph=False,
            stream_completed=True,
            checkpoint_dir=str(journal_dir),
            checkpoint_every=None,
            journal_fsync="off",
            duration_fn=duration,
        )
        busy = 0.0
        rss_waves = []
        with spans.span("setup"):
            t0 = time.perf_counter()
            rt = COMPSsRuntime(cfg).start()
            run.add_time(time.perf_counter() - t0, "setup_once")
        try:
            for w, (plan, expect) in enumerate(waves):
                t0 = time.perf_counter()
                futs = submit_wave(plan, traced)
                t1 = time.perf_counter()
                with spans.span("wait"):
                    values = compss_wait_on(futs)
                t2 = time.perf_counter()
                run.add_rate(len(plan) / (t2 - t0))
                run.attempted += len(plan)
                bad = sum(1 for v, e in zip(values, expect) if v != e)
                run.failed += bad
                run.check("task_stream: every returned value is correct", bad == 0,
                          f"wave {w}: {bad} wrong of {len(plan)}")
                busy += sum(f.invocation.end_time - f.invocation.start_time
                            for f in futs)
                rss_waves.append(rss_mb())
                if traced:
                    run.layer.add("wait.us", 1e6 * (t2 - t1) / len(plan))
                del futs, values
                run.recalibrate()
            makespan = rt.virtual_time
            freed, live = rt.graph.freed_tasks, rt.graph.n_tasks
            dispatch = rt.analysis().dispatch()
        finally:
            with spans.span("runtime.stop"):
                rt.stop()
        n_tasks = STREAM_WAVE * STREAM_WAVES
        run.samples.add("slot_utilisation", busy / (STREAM_CORES * makespan))
        run.check("task_stream: every task was freed", freed == n_tasks and live == 0,
                  f"freed {freed} live {live} of {n_tasks}")
        if traced:
            journal = journal_dir / "journal.jsonl"
            with open(journal, "rb") as fh:
                records = sum(1 for _ in fh)
            layer = run.layer
            layer.extend("submit.us", [1e3 * v for v in _unit_durations_ms(run, "submit")])
            layer.add("journal.bytes_per_task", journal.stat().st_size / n_tasks)
            layer.add("journal.records", records)
            layer.add("dispatch.rounds", dispatch["rounds"])
            layer.add("dispatch.avg_batch_size", dispatch["avg_batch_size"])
            layer.add("dispatch.probes_per_task",
                      dispatch["placement_probes"] / max(1, dispatch["placed"]))
            layer.add("dispatch.wakes", dispatch["wakes"])
            layer.add("graph.freed_tasks", freed)
            layer.add("graph.live_tasks_end", live)
            layer.add("rss_growth_mb", rss_waves[-1] - rss_waves[0])
            layer.add("executor.attempts", n_tasks)
            layer.add("executor.busy_s", busy)
            layer.add("executor.idle_slot_s", STREAM_CORES * makespan - busy)
        shutil.rmtree(journal_dir, ignore_errors=True)

    run.loop(unit)


# ======================================================================
# staged_sweep
# ======================================================================
SWEEP_N_TRAIN = 1000
SWEEP_N_TEST = 100
SWEEP_BLOCK_EPOCHS = 2
#: Long enough that an in-flight duplicate stage always waits for the
#: lease holder's publication, which makes hit/epoch counts exact.
SWEEP_LEASE_WAIT_S = 10.0


def staged_sweep(run: Run) -> None:
    """Staged real-training grid with reuse, integrity and spills, then resume.

    Each unit runs a fresh sweep (``StagePlan(objective="train")``, small
    MLPs) on 2 local slots with the reuse cache, ``verify_outputs`` and
    the journal spilling every completed task, then resumes the finished
    study from its checkpoint directory with a second runner.
    """
    from repro.hpo import GridSearch, PyCOMPSsRunner, parse_search_space
    from repro.hpo.stages import StagePlan, executed_epochs, reset_epoch_counter
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.runtime import COMPSsRuntime
    from repro.simcluster.machines import local_machine

    space_spec = {
        "optimizer": ["Adam", "SGD", "RMSprop"],
        "batch_size": [32, 64],
        "hidden_units": [32, 64],
        "num_epochs": [2, 4, 6, 8],
        "architecture": "mlp",
        "n_train": SWEEP_N_TRAIN,
        "n_test": SWEEP_N_TEST,
        "data_seed": run.seed,
        "seed": run.seed,
    }
    plan = StagePlan(block_epochs=SWEEP_BLOCK_EPOCHS, objective="train")
    first: Dict[str, object] = {}

    def config(root: Path):
        return RuntimeConfig(
            cluster=local_machine(LOCAL_SLOTS),
            checkpoint_dir=str(root / "ckpt"),
            checkpoint_every=1,
            verify_outputs=True,
            reuse_cache=True,
            cache_dir=str(root / "cache"),
            cache_lease_wait_s=SWEEP_LEASE_WAIT_S,
        )

    def sweep(runtime):
        spans = run.spans
        instrument_runtime(runtime, spans)
        algorithm = TimedAlgorithm(GridSearch(parse_search_space(space_spec)), spans)
        with _body_spans(spans, plan.objective):
            runner = PyCOMPSsRunner(algorithm, stage_plan=plan, study_name="staged-sweep")
            study, wall = run_study(run, runtime, runner, algorithm)
        return study, wall, algorithm

    def unit(i: int, traced: bool) -> None:
        spans = run.spans
        root = run.tmpdir("sweep-")
        reset_epoch_counter()
        with spans.span("setup"):
            t0 = time.perf_counter()
            warm_dataset(SWEEP_N_TRAIN, SWEEP_N_TEST, run.seed)
            runtime = COMPSsRuntime(config(root)).start()
            run.add_time(time.perf_counter() - t0, "setup_once")
        try:
            with epoch_spans(spans) if traced else nullcontext():
                study, wall, algorithm = sweep(runtime)
            util = record_study_layers(run, traced, runtime, algorithm, wall, LOCAL_SLOTS)
        finally:
            with spans.span("runtime.stop"):
                runtime.stop()
        epochs = executed_epochs()

        reset_epoch_counter()
        with spans.span("resume"):
            t0 = time.perf_counter()
            resumed_rt = COMPSsRuntime(config(root), resume_from=str(root / "ckpt"))
            resumed_rt.start()
            try:
                resumed, _, _ = sweep(resumed_rt)
                resume_stats = resumed_rt.resume_stats() or {}
            finally:
                resumed_rt.stop()
            resume_s = time.perf_counter() - t0
        re_epochs = executed_epochs()

        completed = study.completed()
        n = len(study.trials)
        run.attempted += n
        run.failed += n - len(completed)
        run.samples.add("study_s", wall)
        run.samples.add("resume_s", resume_s)
        run.add_rate(len(completed) / (wall + resume_s))
        run.samples.add("slot_utilisation", util)

        reuse = study.metadata.get("reuse", {})
        integ = study.metadata.get("integrity", {})
        r_reuse = resumed.metadata.get("reuse", {})
        r_integ = resumed.metadata.get("integrity", {})
        if traced:
            layer = run.layer
            record_body_layers(run)
            hits, misses = reuse.get("hits", 0), reuse.get("misses", 0)
            layer.add("reuse.hits", hits)
            layer.add("reuse.misses", misses)
            layer.add("reuse.hit_ratio", hits / max(1, hits + misses))
            layer.add("reuse.published", reuse.get("published", 0))
            layer.add("reuse.lease_waits", reuse.get("lease_waits", 0))
            layer.add("reuse.verify_s", reuse.get("verify_time_s", 0.0)
                      + r_reuse.get("verify_time_s", 0.0))
            layer.add("reuse.bytes", reuse.get("bytes", 0))
            layer.add("integrity.outputs_sealed", integ.get("outputs_sealed", 0))
            layer.add("integrity.reads_verified", integ.get("reads_verified", 0))
            layer.add("resume.restored", resume_stats.get("restored_this_session", 0))
            layer.add("hpo.epochs_trained", epochs)
            layer.add("resume_s", resume_s)

        accs = {t.trial_id: t.result.val_accuracy for t in completed}
        r_accs = {t.trial_id: t.result.val_accuracy for t in resumed.completed()}
        counts = (epochs, reuse.get("hits"), reuse.get("misses"))
        run.check("staged_sweep: all trials completed", len(completed) == n > 0,
                  f"{len(completed)} of {n}")
        run.check("staged_sweep: resumed accuracies equal the first run's",
                  r_accs == accs)
        run.check("staged_sweep: resume re-trained 0 epochs", re_epochs == 0, re_epochs)
        unverified = (reuse.get("unverified_hits"), r_reuse.get("unverified_hits"),
                      integ.get("unverified_reads"), r_integ.get("unverified_reads"))
        run.check("staged_sweep: unverified hits and reads are 0",
                  unverified == (0, 0, 0, 0), unverified)
        first.setdefault("accs", accs)
        first.setdefault("counts", counts)
        run.check("staged_sweep: accuracies repeat across units", accs == first["accs"])
        run.check("staged_sweep: epochs/hits/misses repeat across units",
                  counts == first["counts"], (counts, first["counts"]))
        shutil.rmtree(root, ignore_errors=True)

    run.loop(unit)


@contextmanager
def _body_spans(spans: SpanRecorder, objective: str):
    """Time the staged task bodies (``STAGE_BODIES``) as ``ml.body``."""
    if not spans.enabled:
        yield
        return
    from repro.hpo.stages import STAGE_BODIES

    original = STAGE_BODIES[objective]
    STAGE_BODIES[objective] = tuple(spans.wrap("ml.body", f) for f in original)
    try:
        yield
    finally:
        STAGE_BODIES[objective] = original


# ======================================================================
# sim_chaos
# ======================================================================
CHAOS_NODES = 4
CHAOS_TRIALS = 10_000
CHAOS_BATCH = 192
#: Churn stays on past the study's end (~15 h of virtual time).
CHAOS_HORIZON_S = 200_000.0


def sim_chaos(run: Run) -> None:
    """Random search under combined seeded faults on simulated MareNostrum 4.

    ``fast_mock_objective`` trials on ``mare_nostrum4(4)``; stochastic spot
    churn, task failures, torn transfers and output corruption, all drawn
    from the run's seed; ``verify_outputs`` with 2 replicas; journal off.
    Trials are single tasks with no task inputs, so no transfer is staged
    and the transfer faults stay armed but idle.
    """
    from repro.hpo import PyCOMPSsRunner, RandomSearch, fast_mock_objective, parse_search_space
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.fault import RetryPolicy
    from repro.runtime.runtime import COMPSsRuntime
    from repro.simcluster import mare_nostrum4
    from repro.simcluster.failures import ChurnPlan, FailureInjector

    space = parse_search_space({
        "optimizer": ["Adam", "SGD", "RMSprop"],
        "num_epochs": {"type": "int", "low": 1, "high": 20},
        "batch_size": [32, 64, 128],
        "learning_rate": {"type": "real", "low": 1e-4, "high": 1e-1, "log": True},
    })
    cores = 48 * CHAOS_NODES
    first: Dict[str, object] = {}

    def config():
        churn = ChurnPlan().stochastic(
            0.1, interval_s=1800.0, horizon_s=CHAOS_HORIZON_S, lead_s=60.0,
            rejoin_delay_s=600.0, seed=run.seed,
        )
        injector = FailureInjector(
            seed=run.seed, task_failure_prob=0.02, output_corrupt_prob=0.01,
            transfer_failure_prob=0.01, churn=churn,
        )
        return RuntimeConfig(
            cluster=mare_nostrum4(CHAOS_NODES), executor="simulated",
            execute_bodies=True, graph=False, verify_outputs=True,
            replication_factor=2, failure_injector=injector,
            drain_deadline_s=60.0, starvation_timeout_s=3600.0,
            retry_policy=RetryPolicy(same_node_retries=1, resubmissions=8),
        )

    def unit(i: int, traced: bool) -> None:
        spans = run.spans
        with spans.span("setup"):
            t0 = time.perf_counter()
            runtime = COMPSsRuntime(config()).start()
            run.add_time(time.perf_counter() - t0, "setup_once")
        try:
            instrument_runtime(runtime, spans)
            algorithm = TimedAlgorithm(
                RandomSearch(space, n_trials=CHAOS_TRIALS, seed=run.seed), spans)
            runner = PyCOMPSsRunner(
                algorithm, objective=spans.wrap("ml.body", fast_mock_objective),
                batch_size=CHAOS_BATCH, study_name="sim-chaos",
            )
            study, wall = run_study(run, runtime, runner, algorithm)
            makespan = runtime.virtual_time
            util = record_study_layers(run, traced, runtime, algorithm, wall, cores,
                                       makespan=makespan)
            records = runtime.tracer.records
            churn = runtime.analysis().churn()
            resilience = runtime.resilience.counts()
            integ = runtime.integrity.stats()
        finally:
            with spans.span("runtime.stop"):
                runtime.stop(wait=False)
        completed = study.completed()
        n = len(study.trials)
        run.attempted += n
        run.failed += n - len(completed)
        run.samples.add("study_s", wall)
        run.add_rate(len(completed) / wall)
        run.samples.add("slot_utilisation", util)
        run.samples.add("virtual_makespan_s", makespan)

        retries, resubmissions = _retries(records)
        counts = {
            "resilience.retries": retries,
            "resilience.resubmissions": resubmissions,
            "resilience.dropped_events": resilience.get("dropped_events", 0),
            "churn.drains_started": churn["drains_started"],
            "churn.drains_completed": churn["drains_completed"],
            "churn.nodes_lost": churn["nodes_lost"],
            "churn.nodes_rejoined": churn["nodes_rejoined"],
            "integrity.transfer_retries": integ["transfer_retries"],
            "integrity.replica_repairs": integ["replica_repairs"],
            "integrity.recomputes": integ["recomputes"],
            "integrity.outputs_sealed": integ["outputs_sealed"],
            "integrity.reads_verified": integ["reads_verified"],
        }
        if traced:
            record_body_layers(run)
            for name, value in counts.items():
                run.layer.add(name, value)
            run.layer.add("virtual_makespan_s", makespan)
        run.check("sim_chaos: every trial completed", len(completed) == n == CHAOS_TRIALS,
                  f"{len(completed)} of {n}")
        run.check("sim_chaos: no unverified reads", integ["unverified_reads"] == 0,
                  integ["unverified_reads"])
        signature = (makespan, counts, sorted(resilience.items()))
        first.setdefault("signature", signature)
        run.check("sim_chaos: makespan and churn/resilience counts repeat across units",
                  signature == first["signature"], (signature, first["signature"]))

    run.loop(unit)


def _retries(records) -> tuple:
    """(failed attempts, retries placed on another node) from trace records."""
    by_label: Dict[str, list] = {}
    for r in records:
        by_label.setdefault(r.task_label, []).append(r)
    retries = resubmissions = 0
    for attempts in by_label.values():
        attempts.sort(key=lambda r: (r.start, r.attempt))
        for prev, nxt in zip(attempts, attempts[1:]):
            if not prev.success:
                retries += 1
                resubmissions += prev.node != nxt.node
    return retries, resubmissions


WORKLOADS = {
    "paper_grid": paper_grid,
    "task_stream": task_stream,
    "staged_sweep": staged_sweep,
    "sim_chaos": sim_chaos,
}
