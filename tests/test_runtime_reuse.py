"""Cross-trial reuse cache: unit, integration and chaos acceptance.

Covers the tentpole contract of the content-addressed stage cache:

* unit — verified hits (corrupt == miss, never a wrong restore),
  quarantine after repeated failures, single-flight lease claim /
  stale-break / wait, LRU eviction that never evicts leased keys,
  atomic publication (torn temps invisible), offline ``scan`` / ``gc``;
* integration — an epochs-varying grid resolves its shared prefixes
  from cache (>= 30 % redundant-epoch reduction) while producing the
  identical best configuration to the cache-off baseline;
* chaos acceptance — 3 seeds x (10 % stochastic corruption + a
  wedged lease + concurrent daemon tenants racing identical stages)
  still match the cache-off best config, with zero unverified reads
  and bit-identical same-seed reruns.
"""

import os
import threading
import time
from collections import Counter

import pytest

from repro.hpo import PyCOMPSsRunner
from repro.hpo.space import Categorical, SearchSpace
from repro.hpo.stages import (
    StagePlan,
    executed_epochs,
    reset_epoch_counter,
    split_config,
    stage_final_mock,
    stage_prepare,
    stage_train_mock,
)
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import (
    PoisonTaskError,
    ResourceStarvationError,
    TaskFailedError,
    UpstreamFailureError,
)
from repro.runtime.reuse import MISS, ReuseCache
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition, TaskState
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import local_machine

SPACE = {"optimizer": ["SGD", "Adam", "RMSprop"], "num_epochs": [4, 8, 12]}


def make_cache(tmp_path, **kw):
    return ReuseCache(tmp_path / "cache", **kw)


def slow_square(x):
    time.sleep(0.2)
    return x * x


UNPUBLISHABLE_RUNS = []


def unpublishable(x):
    UNPUBLISHABLE_RUNS.append(x)
    time.sleep(0.05)
    return lambda: x  # unpicklable: the cache can never publish it


STAGE_RUNS = []


def poisonous(x):
    STAGE_RUNS.append(x)
    time.sleep(0.05)  # still running when its duplicates arrive
    raise PoisonTaskError(f"poisonous-{x}", 2, 2)


def broken(x):
    STAGE_RUNS.append(x)
    raise ValueError(f"broken stage {x}")


def cacheable(func):
    return TaskDefinition(
        func=func, name=func.__name__, returns=object, n_returns=1,
        cacheable=True,
    )


# ----------------------------------------------------------------------
# Unit: verified hits and quarantine
# ----------------------------------------------------------------------
class TestVerifiedHits:
    def test_roundtrip_hit(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.acquire("k1") is MISS  # claims the lease
        assert cache.publish("k1", {"epoch": 4})
        assert not cache.holds_lease("k1")  # publish released it
        assert cache.acquire("k1") == {"epoch": 4}
        s = cache.stats()
        assert (s["hits"], s["misses"], s["published"]) == (1, 1, 1)
        assert s["unverified_hits"] == 0

    def test_cached_none_is_not_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("k")
        cache.publish("k", None)
        assert cache.acquire("k") is None

    def test_corrupt_entry_is_a_miss_not_a_wrong_value(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("k")
        cache.publish("k", list(range(100)))
        assert cache.corrupt_entry("k")
        assert cache.acquire("k") is MISS
        s = cache.stats()
        assert s["corrupt"] == 1
        assert s["unverified_hits"] == 0
        # The poisoned bytes were dropped; a clean republish hits again.
        cache.publish("k", list(range(100)))
        assert cache.acquire("k") == list(range(100))

    def test_quarantine_after_poison_threshold(self, tmp_path):
        cache = make_cache(tmp_path, poison_threshold=2)
        for _ in range(2):
            cache.acquire("bad")
            cache.publish("bad", "v")
            cache.corrupt_entry("bad")
            assert cache.acquire("bad") is MISS
        assert cache.is_quarantined("bad")
        assert cache.stats()["quarantined"] == 1
        # Quarantined keys refuse publication and always miss.
        assert not cache.publish("bad", "v")
        assert cache.acquire("bad") is MISS
        # Quarantine markers persist across cache instances (restart).
        again = make_cache(tmp_path, poison_threshold=2)
        assert again.is_quarantined("bad")

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("t")
        cache.publish("t", {"x": 1})
        path = cache.store._path("t")
        path.write_bytes(path.read_bytes()[:3])
        assert cache.acquire("t") is MISS
        assert cache.stats()["unverified_hits"] == 0

    def test_integrity_manager_accounts_verifications(self, tmp_path):
        from repro.runtime.integrity import MODE_LOCAL, IntegrityManager

        integrity = IntegrityManager(MODE_LOCAL)
        cache = make_cache(tmp_path, integrity=integrity)
        cache.acquire("k")
        cache.publish("k", 1)
        cache.acquire("k")
        cache.corrupt_entry("k")
        cache.acquire("k")
        stats = integrity.stats()
        assert stats["cache_verified"] == 1
        assert stats["cache_corrupt"] == 1


# ----------------------------------------------------------------------
# Unit: single-flight leases
# ----------------------------------------------------------------------
class TestLeases:
    def test_lease_claimed_on_miss_blocks_second_claim(self, tmp_path):
        first = make_cache(tmp_path)
        second = make_cache(tmp_path)
        assert first.acquire("k") is MISS
        assert first.holds_lease("k")
        # A second (process-like) cache instance cannot claim it and,
        # with lease_wait_s=0, degrades to an unleased recompute.
        assert second.acquire("k") is MISS
        assert not second.holds_lease("k")
        # Both computed; both publish — first atomic publish wins and
        # the loser's bytes are never written over it.
        assert first.publish("k", "A")
        second.publish("k", "B")
        assert second.stats()["published"] == 0
        assert first.acquire("k") == "A"

    def test_stale_lease_is_broken(self, tmp_path):
        cache = make_cache(tmp_path, lease_timeout_s=0.05, lease_wait_s=5.0)
        other = make_cache(tmp_path, lease_timeout_s=0.05, lease_wait_s=5.0)
        assert other.acquire("k") is MISS  # writer that will "crash"
        other.wedge_lease("k")  # keeps the file, forgets it held it
        time.sleep(0.1)  # let the lease age past timeout
        # The waiter breaks the stale lease and takes over as writer.
        assert cache.acquire("k") is MISS
        assert cache.holds_lease("k")
        assert cache.stats()["lease_breaks"] == 1

    def test_waiter_turns_miss_into_hit_when_writer_publishes(self, tmp_path):
        import threading

        writer = make_cache(tmp_path)
        waiter = make_cache(tmp_path, lease_wait_s=10.0)
        assert writer.acquire("k") is MISS

        def publish_later():
            time.sleep(0.15)
            writer.publish("k", "value")

        t = threading.Thread(target=publish_later)
        t.start()
        try:
            assert waiter.acquire("k") == "value"
        finally:
            t.join()
        assert waiter.stats()["lease_waits"] == 1

    def test_wait_timeout_degrades_to_unleased_recompute(self, tmp_path):
        writer = make_cache(tmp_path, lease_timeout_s=60.0)
        waiter = make_cache(tmp_path, lease_timeout_s=60.0, lease_wait_s=0.2)
        assert writer.acquire("k") is MISS  # fresh lease, never publishes
        assert waiter.acquire("k") is MISS  # timed out, computes unleased
        assert not waiter.holds_lease("k")
        assert waiter.stats()["lease_timeouts"] == 1

    def test_wall_clock_step_does_not_stretch_the_wait(
        self, tmp_path, monkeypatch
    ):
        import types

        from repro.runtime import reuse as reuse_module

        writer = make_cache(tmp_path)
        waiter = make_cache(tmp_path, lease_wait_s=0.2)
        assert writer.acquire("k") is MISS  # fresh lease, never published
        real = time.time
        calls = []

        def stepped_back():
            # The wall clock jumps 5 s back once the wait has begun.
            calls.append(None)
            return real() - (5.0 if len(calls) > 1 else 0.0)

        monkeypatch.setattr(reuse_module, "time", types.SimpleNamespace(
            time=stepped_back, monotonic=time.monotonic,
            perf_counter=time.perf_counter, sleep=time.sleep,
        ))
        started = time.monotonic()
        assert waiter.acquire("k") is MISS
        assert time.monotonic() - started < 2.0  # the 0.2 s budget holds
        assert waiter.stats()["lease_timeouts"] == 1

    def test_abandon_frees_the_lease_for_waiters(self, tmp_path):
        writer = make_cache(tmp_path)
        waiter = make_cache(tmp_path, lease_wait_s=5.0)
        assert writer.acquire("k") is MISS
        import threading

        def fail_later():
            time.sleep(0.1)
            writer.abandon("k")  # the computation failed

        t = threading.Thread(target=fail_later)
        t.start()
        try:
            # The waiter contends for the freed lease and becomes writer.
            assert waiter.acquire("k") is MISS
            assert waiter.holds_lease("k")
        finally:
            t.join()

    def test_release_all_drops_held_leases(self, tmp_path):
        cache = make_cache(tmp_path)
        for k in ("a", "b"):
            assert cache.acquire(k) is MISS
        cache.release_all()
        assert not cache.holds_lease("a")
        assert not list((tmp_path / "cache").glob("*.lease"))


# ----------------------------------------------------------------------
# Unit: eviction and atomic publication
# ----------------------------------------------------------------------
class TestEvictionAndAtomicity:
    def test_lru_eviction_under_max_bytes(self, tmp_path):
        cache = make_cache(tmp_path, max_bytes=2000)
        payload = os.urandom(600)  # ~600 B entry + sidecar
        for i in range(4):
            key = f"k{i}"
            cache.acquire(key)
            cache.publish(key, payload + bytes([i]))
            time.sleep(0.01)  # distinct atimes for LRU order
        s = cache.stats()
        assert s["evicted"] >= 1
        assert s["bytes"] <= 2000
        # Oldest entry went first; the newest survives.
        assert cache.acquire("k3") == payload + bytes([3])

    def test_eviction_never_evicts_leased_keys(self, tmp_path):
        cache = make_cache(tmp_path, max_bytes=1500)
        payload = os.urandom(600)
        cache.acquire("pinned")  # lease held, never published
        other = make_cache(tmp_path, max_bytes=1500)
        other.acquire("seed")
        other.publish("seed", payload)
        # Blow past the ceiling; "pinned" has only a lease (no bytes),
        # "seed" is evictable, the fresh key is protected.
        other.acquire("big")
        other.publish("big", payload + payload)
        assert cache.holds_lease("pinned")
        assert (tmp_path / "cache" / "pinned.lease").exists()

    def test_torn_temp_files_are_invisible_to_readers(self, tmp_path):
        cache = make_cache(tmp_path)
        # A SIGKILLed publisher leaves a .tmp the atomic-rename protocol
        # never exposes: readers miss, gc reaps.
        (tmp_path / "cache" / "torn.pkl.tmp").write_bytes(b"partial")
        assert cache.acquire("torn") is MISS
        report = ReuseCache.gc(tmp_path / "cache")
        assert report["torn_temps"] == 1
        assert not (tmp_path / "cache" / "torn.pkl.tmp").exists()

    def test_unpicklable_value_degrades_to_skip(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("k")
        assert cache.publish("k", lambda: None) is False
        assert not cache.holds_lease("k")  # lease still released
        assert cache.stats()["publish_skipped"] == 1


# ----------------------------------------------------------------------
# Unit: offline scan and gc
# ----------------------------------------------------------------------
class TestScanAndGc:
    def test_scan_reports_entries_corrupt_and_leases(self, tmp_path):
        cache = make_cache(tmp_path)
        for key in ("a", "b"):
            cache.acquire(key)
            cache.publish(key, key * 10)
        cache.acquire("leased")  # leaves a live lease
        # Rot one entry behind the cache's back.
        path = cache.store._path("a")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        report = ReuseCache.scan(tmp_path / "cache")
        assert report["entries"] == 2
        assert report["corrupt"] == 1
        assert report["leases"] == 1
        assert ReuseCache.scan(tmp_path / "nope") is None

    def test_gc_reaps_stale_leases_honours_fresh_ones(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("fresh")
        stale = tmp_path / "cache" / "stale.lease"
        stale.write_text("{}")
        old = time.time() - 600
        os.utime(stale, (old, old))
        report = ReuseCache.gc(tmp_path / "cache", lease_timeout_s=60.0)
        assert report["stale_leases"] == 1
        assert not stale.exists()
        assert (tmp_path / "cache" / "fresh.lease").exists()

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("k")
        cache.publish("k", "v")
        cache.corrupt_entry("k")
        report = ReuseCache.gc(tmp_path / "cache", dry_run=True)
        assert report["corrupt_entries"] == 1
        assert report["dry_run"] is True
        assert cache.store._path("k").exists()
        # The real sweep then reaps it.
        report = ReuseCache.gc(tmp_path / "cache")
        assert report["corrupt_entries"] == 1
        assert not cache.store._path("k").exists()


# ----------------------------------------------------------------------
# Unit: stage decomposition determinism
# ----------------------------------------------------------------------
class TestStages:
    def test_split_config_strips_control_keys(self):
        prep, params, epochs = split_config(
            {"optimizer": "SGD", "num_epochs": 8, "dataset": "mnist",
             "target_accuracy": 0.9, "batch_size": 64}
        )
        assert prep == {"dataset": "mnist"}
        assert params == {"optimizer": "SGD", "batch_size": 64}
        assert epochs == 8

    def test_mock_curve_is_prefix_stable(self):
        # The whole point: the 4-epoch prefix computed under an 8-epoch
        # trial must equal the 4-epoch trial's full run.
        params = {"optimizer": "Adam", "batch_size": 32}
        state = stage_prepare({})
        s4 = stage_train_mock(state, params, 0, 4)
        s8 = stage_train_mock(s4, params, 4, 8)
        alone = stage_train_mock(stage_prepare({}), params, 0, 4)
        assert s4 == alone
        assert s8["curve"][:4] == s4["curve"]
        final4 = stage_final_mock(s4, params)
        assert final4["val_accuracy"] == s4["curve"][-1]
        assert final4["staged"] is True

    def test_out_of_order_chain_is_rejected(self):
        state = stage_prepare({})
        with pytest.raises(ValueError, match="out of order"):
            stage_train_mock(state, {}, 4, 8)

    def test_plan_blocks_cover_budget_with_partial_tail(self):
        plan = StagePlan(block_epochs=4)
        assert plan.blocks(10) == [(0, 4), (4, 8), (8, 10)]
        assert plan.blocks(4) == [(0, 4)]
        with pytest.raises(ValueError):
            StagePlan(block_epochs=0)
        with pytest.raises(ValueError):
            StagePlan(objective="nope")


# ----------------------------------------------------------------------
# Integration: staged grid with reuse on vs off
# ----------------------------------------------------------------------
def staged_config(tmp_path, reuse, injector=None, **config):
    return RuntimeConfig(
        cluster=local_machine(4),
        reuse_cache=reuse,
        cache_dir=str(tmp_path / "cache") if reuse else None,
        failure_injector=injector,
        **config,
    )


def staged_runner(name, space=None, plan=None, batch_size=1, config=None):
    """The staged grid.  ``batch_size=1`` submits trials one by one, so
    prefixes publish before the next trial consults the cache;
    ``batch_size=None`` submits the whole grid at once, so identical
    stages are in flight together and coalesce."""
    return PyCOMPSsRunner(
        "grid",
        space=SearchSpace.from_dict(space or SPACE),
        runtime_config=config,
        stage_plan=plan or StagePlan(block_epochs=4),
        study_name=name,
        batch_size=batch_size,
    )


def staged_study(tmp_path, name, reuse, seed=0, injector=None,
                 space=None, plan=None, batch_size=1, **config):
    return staged_runner(
        name, space, plan, batch_size,
        staged_config(tmp_path, reuse, injector, **config),
    ).run()


def answers(study):
    return {t.trial_id: t.val_accuracy for t in study.completed()}


def best_of(study):
    best = study.best_trial()
    return best.config, best.val_accuracy


class TestStagedGridReuse:
    def test_prefix_reuse_cuts_redundant_epochs(self, tmp_path):
        reset_epoch_counter()
        baseline = staged_study(tmp_path / "off", "off", reuse=False)
        epochs_off = executed_epochs()
        reset_epoch_counter()
        cached = staged_study(tmp_path / "on", "on", reuse=True)
        epochs_on = executed_epochs()
        reset_epoch_counter()

        # Same study, same results — cache changes cost, never answers.
        assert best_of(cached) == best_of(baseline)
        off = {t.trial_id: t.val_accuracy for t in baseline.completed()}
        on = {t.trial_id: t.val_accuracy for t in cached.completed()}
        assert on == off

        # The acceptance floor: >= 30 % of epochs were redundant.
        # 3 optimizers x epochs {4,8,12}: 72 epochs monolithic, 36 with
        # shared prefixes (per optimizer 4+8+12 -> 12).
        assert epochs_off == 72
        assert epochs_on <= epochs_off * 0.7
        reuse = cached.metadata["reuse"]
        assert reuse["hits"] > 0
        assert reuse["unverified_hits"] == 0

    def test_second_process_rides_the_populated_cache(self, tmp_path):
        staged_study(tmp_path, "warm", reuse=True)
        reset_epoch_counter()
        again = staged_study(tmp_path, "ride", reuse=True)
        assert executed_epochs() == 0  # fully cache-resolved
        reset_epoch_counter()
        assert again.metadata["reuse"]["misses"] == 0

    def test_target_accuracy_warned_and_ignored(self, tmp_path):
        config = RuntimeConfig(cluster=local_machine(2))
        runner = PyCOMPSsRunner(
            "grid",
            space=SearchSpace.from_dict(
                {"optimizer": ["SGD"], "num_epochs": [4]}
            ),
            runtime_config=config,
            stage_plan=StagePlan(block_epochs=4),
            study_name="warn",
        )
        runner.target_accuracy = 0.5  # would stop instantly if honoured
        study = runner.run()
        assert len(study.completed()) == 1


# ----------------------------------------------------------------------
# Integration: in-flight duplicates coalesce onto their leader
# ----------------------------------------------------------------------
#: The staged grid with a real per-epoch cost, so a stage is still in
#: flight when its duplicates are submitted.
SLEEPY_SPACE = dict(SPACE, epoch_sleep_s=[0.01])


def concurrent_study(tmp_path, name, reuse=True, injector=None, **config):
    """The whole grid submitted at once: duplicates are in flight together."""
    return staged_study(tmp_path, name, reuse=reuse, injector=injector,
                        space=SLEEPY_SPACE, batch_size=None, **config)


class TestInFlightCoalescing:
    """19 distinct stages among 36 submitted: 1 prepare, 9 train blocks
    and 9 finals run; the other 17 resolve from verified entries."""

    def test_concurrent_submission_trains_each_epoch_once(self, tmp_path):
        baseline = concurrent_study(tmp_path / "off", "off", reuse=False)
        reset_epoch_counter()
        study = concurrent_study(tmp_path / "on", "on")
        epochs = executed_epochs()
        reset_epoch_counter()
        assert epochs == 36  # not 72: no duplicate recomputes unleased
        reuse = study.metadata["reuse"]
        assert (reuse["hits"], reuse["misses"]) == (17, 19)
        assert reuse["unverified_hits"] == 0
        assert answers(study) == answers(baseline)

    @pytest.mark.parametrize("lease_wait_s", [0.0, 0.5])
    def test_simulated_clock_coalesces_without_polling(
        self, tmp_path, lease_wait_s
    ):
        """Virtual time only advances inside ``wait_for``, so a lease
        polled on the submitting thread could never see the publication:
        duplicates must coalesce instead of sleeping out the wait."""
        reset_epoch_counter()
        local = concurrent_study(tmp_path / "local", "local")
        local_epochs = executed_epochs()
        reset_epoch_counter()
        started = time.perf_counter()
        sim = concurrent_study(
            tmp_path / "sim", "sim", executor="simulated",
            execute_bodies=True, cache_lease_wait_s=lease_wait_s,
        )
        wall = time.perf_counter() - started
        sim_epochs = executed_epochs()
        reset_epoch_counter()
        want, got = local.metadata["reuse"], sim.metadata["reuse"]
        assert sim_epochs == local_epochs == 36
        assert (got["hits"], got["misses"]) == (want["hits"], want["misses"])
        assert got["lease_timeouts"] == 0
        assert wall < 1.0
        assert answers(sim) == answers(local)

    def test_unpublishable_leader_hands_the_stage_on(self, tmp_path):
        UNPUBLISHABLE_RUNS.clear()
        stage = TaskDefinition(
            func=unpublishable, name="unpublishable", returns=object,
            n_returns=1, cacheable=True,
        )
        with COMPSsRuntime(staged_config(tmp_path, reuse=True)) as runtime:
            futures = [runtime.submit(stage, (3,), {}) for _ in range(3)]
            values = runtime.wait_on(futures)
            stats = runtime.reuse.stats()
        # No verified entry ever lands, so each follower in turn takes
        # the stage over and computes it once.
        assert [v() for v in values] == [3, 3, 3]
        assert UNPUBLISHABLE_RUNS == [3, 3, 3]
        assert stats["lease_waits"] == 2
        assert (stats["hits"], stats["publish_skipped"]) == (0, 3)

    def test_each_follower_counts_one_lease_wait(self, tmp_path):
        config = staged_config(
            tmp_path, reuse=True, executor="simulated", execute_bodies=True
        )
        with COMPSsRuntime(config) as runtime:
            staged_runner("count", SLEEPY_SPACE, batch_size=None).run()
            stats = runtime.reuse.stats()
            waits = runtime.resilience.of_kind(rsl.LEASE_WAIT)
            analysed = runtime.analysis().reuse()
        # The simulated grid is submitted before any stage runs, so every
        # duplicate follows a leader and resolves with one verified hit.
        assert stats["lease_waits"] == stats["hits"] == 17
        assert analysed["lease_waits"] == stats["lease_waits"]
        assert all(e.detail.startswith("coalesced onto stage_") for e in waits)

    def test_follower_of_a_cache_hit_leader_wakes_its_waiter(
        self, tmp_path, monkeypatch
    ):
        """A leader resolved from the cache at submit time finishes its
        followers outside any attempt completion; their waiters must
        still wake up."""
        square = cacheable(slow_square)
        with COMPSsRuntime(staged_config(tmp_path, reuse=True)) as runtime:
            assert runtime.wait_on(runtime.submit(square, (7,), {})) == 49
            reading, proceed = threading.Event(), threading.Event()
            acquire = runtime.reuse.acquire

            def held_acquire(key, wait=True):
                if wait:  # the reserved leader's submit-time lookup
                    reading.set()
                    proceed.wait(10)
                return acquire(key, wait)

            monkeypatch.setattr(runtime.reuse, "acquire", held_acquire)
            leader = threading.Thread(
                target=runtime.submit, args=(square, (7,), {})
            )
            leader.start()
            assert reading.wait(10)
            follow = runtime.submit(square, (7,), {})
            assert follow.invocation.state == TaskState.SUBMITTED  # held
            got = []
            waiter = threading.Thread(
                target=lambda: got.append(runtime.wait_on(follow)),
                daemon=True,
            )
            waiter.start()
            time.sleep(0.1)  # the waiter blocks on the held follower
            proceed.set()
            leader.join(10)
            waiter.join(5)
            assert got == [49]

    def test_cache_reads_never_hold_the_runtime_lock(
        self, tmp_path, monkeypatch
    ):
        """Leaders read at submit time and followers as they settle, both
        without the runtime lock, so a large verified fetch never stalls
        other studies' submissions and completions."""
        with COMPSsRuntime(staged_config(tmp_path, reuse=True)) as runtime:
            acquire = runtime.reuse.acquire
            owned = []

            def watched(key, wait=True):
                owned.append(runtime.lock._is_owned())
                return acquire(key, wait)

            monkeypatch.setattr(runtime.reuse, "acquire", watched)
            staged_runner("lockfree", SLEEPY_SPACE, batch_size=None).run()
            stats = runtime.reuse.stats()
        assert (stats["hits"], stats["misses"]) == (17, 19)
        assert len(owned) == 36 and not any(owned)

    @pytest.mark.parametrize("executor", ["local", "simulated"])
    def test_poisoned_leader_fails_its_followers_at_once(
        self, tmp_path, executor
    ):
        """Poison is a property of the stage: the followers fail with the
        leader's error instead of each crashing workers in turn."""
        STAGE_RUNS.clear()
        config = staged_config(tmp_path, reuse=True, executor=executor,
                               **({"execute_bodies": True}
                                  if executor == "simulated" else {}))
        with COMPSsRuntime(config) as runtime:
            futures = [runtime.submit(cacheable(poisonous), (5,), {})
                       for _ in range(3)]
            for fut in futures:
                with pytest.raises(TaskFailedError) as info:
                    runtime.wait_on(fut)
                assert isinstance(info.value.cause, PoisonTaskError)
        assert STAGE_RUNS == [5]

    @pytest.mark.parametrize("executor", ["local", "simulated"])
    def test_starved_leader_fails_its_followers_at_once(
        self, tmp_path, executor
    ):
        """A starved stage fails its followers together, one starvation
        timeout after submission — not one timeout per follower."""
        config = staged_config(
            tmp_path, reuse=True, executor=executor,
            starvation_timeout_s=0.3,
            **({"execute_bodies": True} if executor == "simulated" else {}),
        )
        with COMPSsRuntime(config) as runtime:
            for node in list(runtime.pool.workers):
                runtime.drain_node(node)
            started = time.perf_counter()
            futures = [runtime.submit(cacheable(slow_square), (3,), {})
                       for _ in range(3)]
            for fut in futures:
                with pytest.raises(TaskFailedError) as info:
                    runtime.wait_on(fut)
                assert isinstance(info.value.cause, ResourceStarvationError)
            elapsed = runtime.virtual_time
            if elapsed is None:
                elapsed = time.perf_counter() - started
            starved = [t for t in runtime.graph.tasks()
                       if any(h.startswith("starved") for h in t.attempt_history)]
        assert len(starved) == 1  # only the leader was ever queued
        assert elapsed < 0.6

    def test_terminal_failure_costs_one_retry_budget_per_follower(
        self, tmp_path
    ):
        """A stage failing terminally hands the key on: each follower in
        turn spends exactly one retry budget (k duplicates, k budgets) —
        the bound DESIGN.md states for transient-looking failures."""
        def run(copies):
            STAGE_RUNS.clear()
            config = staged_config(tmp_path / str(copies), reuse=True,
                                   executor="simulated", execute_bodies=True)
            with COMPSsRuntime(config) as runtime:
                futures = [runtime.submit(cacheable(broken), (2,), {})
                           for _ in range(copies)]
                for fut in futures:
                    with pytest.raises(TaskFailedError):
                        runtime.wait_on(fut)
                return len(STAGE_RUNS), runtime.virtual_time

        budget, alone = run(1)
        runs, together = run(3)
        assert budget >= 1
        assert runs == 3 * budget
        assert together <= 3 * alone + 1e-6


# ----------------------------------------------------------------------
# Chaos acceptance
# ----------------------------------------------------------------------
def follower_chaos_injector(seed):
    """Every way a leader can fail its followers, in one concurrent grid.

    Labels follow submission order (see ``TestInFlightCoalescing``):
    per optimizer, trial (4 epochs) is prepare/train/final, then the 8-
    and 12-epoch trials, whose leading train blocks follow the first
    trial's.

    * Adam: leader ``stage_train-14`` fails terminally; its follower
      ``-17`` takes over but wedges its lease, so ``-21`` computes too and
      fails terminally — while ``-22``, its consumer, still follows the
      slow leader ``-18``: a follower whose own upstream failed.
    * SGD: leader ``stage_train-2``'s entry rots after publication.
    * RMSprop: leader ``stage_train-26`` never publishes (wedged lease).
    * Plus 10 % seeded stochastic corruption of every publication.
    """
    every = (0, 1, 2)  # the default retry budget: three attempts
    plan = (
        FailurePlan()
        .fail_task("stage_train-14", *every)
        .stall_cache_lease("stage_train-17")
        .fail_task("stage_train-21", *every)
        .slow_task("stage_train-18", 10.0)
        .corrupt_cache_entry("stage_train-2")
        .stall_cache_lease("stage_train-26")
    )
    return FailureInjector(plan=plan, seed=seed, cache_corrupt_prob=0.10)


def follower_chaos_run(tmp_path, seed, executor):
    """One chaotic concurrent grid: study, runtime state, epochs trained."""
    extra = {"execute_bodies": True} if executor == "simulated" else {}
    config = staged_config(
        tmp_path, reuse=True, injector=follower_chaos_injector(seed),
        executor=executor, **extra,
    )
    reset_epoch_counter()
    with COMPSsRuntime(config) as runtime:
        study = staged_runner("chaos", SLEEPY_SPACE, batch_size=None).run()
        tasks = runtime.graph.tasks()
        timeline = [
            (e.time, e.kind, e.task_label, e.node, e.detail)
            for e in runtime.resilience.events
        ]
    epochs = executed_epochs()
    reset_epoch_counter()
    return study, tasks, timeline, epochs


class TestChaosAcceptance:
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_chaos_matches_cache_off_with_zero_unverified_reads(
        self, tmp_path, seed
    ):
        """10 % corruption + a wedged lease never change the answer."""
        baseline = staged_study(tmp_path / "off", "off", reuse=False,
                                seed=seed)
        reset_epoch_counter()

        def chaos_injector():
            plan = FailurePlan().stall_cache_lease("stage_prepare-1")
            return FailureInjector(
                plan=plan, seed=seed, cache_corrupt_prob=0.10
            )

        chaotic = staged_study(
            tmp_path / "on", "on", reuse=True, seed=seed,
            injector=chaos_injector(),
        )
        reset_epoch_counter()

        assert best_of(chaotic) == best_of(baseline)
        off = {t.trial_id: t.val_accuracy for t in baseline.completed()}
        on = {t.trial_id: t.val_accuracy for t in chaotic.completed()}
        assert on == off
        reuse = chaotic.metadata["reuse"]
        assert reuse["unverified_hits"] == 0

        # Bit-identical same-seed rerun: same chaos draws, same stats
        # that matter, same study payload.
        rerun = staged_study(
            tmp_path / "rerun", "on", reuse=True, seed=seed,
            injector=chaos_injector(),
        )
        reset_epoch_counter()
        assert {t.trial_id: t.val_accuracy for t in rerun.completed()} == on
        assert best_of(rerun) == best_of(chaotic)

    @pytest.mark.parametrize("executor", ["local", "simulated"])
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_combined_faults_on_coalesced_stages(self, tmp_path, seed,
                                                 executor):
        """Failed, cancelled, corrupted and wedged leaders never leak a
        wrong or unverified value into a follower, nor hang one."""
        baseline = concurrent_study(tmp_path / "off", "off", reuse=False)
        study, tasks, timeline, epochs = follower_chaos_run(
            tmp_path / "on", seed, executor
        )
        got = answers(study)
        assert got  # the SGD and RMSprop chains survive every fault
        want = answers(baseline)
        assert got == {tid: want[tid] for tid in got}
        reuse = study.metadata["reuse"]
        assert reuse["unverified_hits"] == 0
        assert reuse["corrupt"] >= 1
        by_label = {t.label: t for t in tasks}
        # A follower cancelled by its own upstream stays cancelled, even
        # though its leader publishes later.
        assert isinstance(by_label["stage_train-22"].error,
                          UpstreamFailureError)
        for task in tasks:
            if isinstance(task.error, UpstreamFailureError):
                assert task.state == TaskState.FAILED, task.label
        # Each run of a stage was its own leader's one claim on the key:
        # the stage is recomputed at most once per released leader.
        ran = Counter(
            t.content_key for t in tasks
            if t.attempts or t.start_time is not None
        )
        claims = Counter(e[2] for e in timeline if e[1] == rsl.CACHE_MISS)
        for key, runs in ran.items():
            assert runs <= claims[f"key={key}"], key
        # Same seed, same outcome; bit-identical on the virtual clock.
        again, _, again_timeline, again_epochs = follower_chaos_run(
            tmp_path / "rerun", seed, executor
        )
        assert answers(again) == got
        assert again_epochs == epochs
        if executor == "simulated":
            assert again_timeline == timeline

    def test_abandoned_leader_study_lets_other_tenant_follow_through(
        self, tmp_path
    ):
        config = RuntimeConfig(
            cluster=local_machine(2), reuse_cache=True,
            cache_dir=str(tmp_path / "cache"),
        )
        square = TaskDefinition(
            func=slow_square, name="slow_square", returns=object,
            n_returns=1, cacheable=True,
        )
        with COMPSsRuntime(config) as runtime:
            owner = runtime.open_study("owner", tenant="a")
            other = runtime.open_study("other", tenant="b")
            with runtime.study_scope(owner):
                lead = runtime.submit(square, (7,), {})
            with runtime.study_scope(other):
                follow = runtime.submit(square, (7,), {})
            assert follow.invocation.state == TaskState.SUBMITTED  # held
            assert runtime.abandon_study("owner", reason="test") == 1
            assert runtime.wait_on(follow) == 49
            with pytest.raises(TaskFailedError):
                runtime.wait_on(lead)
            stats = runtime.reuse.stats()
        assert stats["lease_waits"] == 1
        assert stats["published"] == 1
        assert stats["unverified_hits"] == 0

    def test_scripted_corruption_is_detected_and_survived(self, tmp_path):
        plan = (
            FailurePlan()
            .corrupt_cache_entry("stage_train-2")
            .stall_cache_lease("stage_prepare-1")
        )
        injector = FailureInjector(plan=plan, seed=3)
        study = staged_study(tmp_path, "scripted", reuse=True,
                             injector=injector)
        baseline = staged_study(tmp_path / "off", "off", reuse=False)
        assert best_of(study) == best_of(baseline)
        assert injector.injected_cache_corruptions == ["stage_train-2"]
        assert injector.injected_cache_stalls == ["stage_prepare-1"]
        reuse = study.metadata["reuse"]
        assert reuse["corrupt"] >= 1
        assert reuse["unverified_hits"] == 0

    def test_concurrent_tenants_race_identical_stages(self, tmp_path):
        """Two daemon tenants, same space: shared cache, same answers."""
        import repro.service.protocol as proto
        from repro.service.client import ServiceClient
        from repro.service.daemon import HPOService

        service = HPOService(
            tmp_path / "svc",
            runtime_config=RuntimeConfig(
                cluster=local_machine(4), reuse_cache=True
            ),
            heartbeat_s=0.05,
        ).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        space = {"optimizer": ["SGD", "Adam"], "num_epochs": [4, 8]}
        try:
            for sid, tenant in (("tA", "a"), ("tB", "b")):
                client.submit(
                    proto.StudyRequest(
                        study_id=sid, tenant=tenant, space=space,
                        stage_epochs=4, objective="fast_mock",
                    ),
                    wait_admission=False,
                )
            service.run_until_idle(max_wait_s=120)
            reuse_stats = service.runtime.reuse.stats()
        finally:
            service.shutdown()

        results = {}
        for sid in ("tA", "tB"):
            state = client.status(sid)
            assert state["status"] == proto.COMPLETED
            results[sid] = (
                state["best"]["config"],
                {t["trial_id"]: t["result"]["val_accuracy"]
                 for t in client.result(sid)["trials"]},
            )
        # Identical studies, identical answers — racing the cache never
        # leaks one tenant's chaos into another's results.
        assert results["tA"] == results["tB"]
        assert reuse_stats["unverified_hits"] == 0
        # The shared cache actually engaged across tenants.
        assert reuse_stats["hits"] > 0
        assert (tmp_path / "svc" / "reuse-cache").is_dir()


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestReuseCli:
    def test_recover_and_gc_report_cache_state(self, tmp_path, capsys):
        from repro.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"optimizer": ["SGD", "Adam"], "num_epochs": [4, 8]}'
        )
        ckpt = tmp_path / "ckpt"
        cache = tmp_path / "cache"
        assert main([
            "run", str(cfg), "--mock-objective", "--stage-epochs", "4",
            "--reuse-cache", "--cache-dir", str(cache),
            "--checkpoint-dir", str(ckpt), "--out-dir", str(tmp_path / "out"),
        ]) == 0
        capsys.readouterr()

        assert main([
            "recover", str(ckpt), "--cache-dir", str(cache)
        ]) == 0
        out = capsys.readouterr().out
        assert "reuse cache:" in out

        stale = cache / "dead.lease"
        stale.write_text("{}")
        old = time.time() - 600
        os.utime(stale, (old, old))
        assert main(["gc", str(ckpt), "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "1 stale lease(s)" in out
        assert not stale.exists()

    def test_run_reuse_without_cache_home_is_a_friendly_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"optimizer": ["SGD"]}')
        assert main(["run", str(cfg), "--mock-objective",
                     "--reuse-cache"]) == 2
        assert "--cache-dir" in capsys.readouterr().err
