"""Concurrency properties of :mod:`repro.cache`.

Hypothesis-driven and hand-built thread stress of
:class:`~repro.cache.BoundedCache` plus the thread-locality contract
of the cache off-switch.  The invariants (``docs/SERVING.md``):

* ``hits + misses == lookups`` — no lost statistics updates.
* ``len(cache) <= maxsize`` at every observable moment.
* First insertion wins: every thread racing ``get_or_create`` on a
  key receives the *same object*.
* ``clear()`` cannot be undone by an in-flight factory (generation
  guard).
* ``disabled()`` bypasses the caches on the calling thread only.
* A deferred :class:`~repro.codegen.access.SharedAccesses` (a cached
  plan's access table) is built once however many threads make its
  first read, and its warp-0 head stays readable until the full
  arrays are set.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache


def run_threads(n, target):
    """Run ``target(i)`` on n threads through a start barrier."""
    barrier = threading.Barrier(n)
    errors = []

    def wrapped(i):
        barrier.wait()
        try:
            target(i)
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestStatsInvariants:
    def test_no_lost_stat_updates_under_contention(self):
        c = cache.BoundedCache("t_conc_stats", maxsize=64, register=False)
        gets_per_thread = 500
        n_threads = 8

        def work(i):
            for j in range(gets_per_thread):
                key = (i * 7 + j) % 40
                if c.get(key) is None:
                    c.put(key, key)

        run_threads(n_threads, work)
        snap = c.stats()
        # Every lookup was counted exactly once despite 8 threads
        # hammering the same lock-guarded counters.
        assert snap.hits + snap.misses == snap.lookups
        assert snap.lookups == n_threads * gets_per_thread
        assert snap.size <= 64
        assert snap.size == len(c)

    def test_eviction_accounting_balances(self):
        c = cache.BoundedCache("t_conc_evict", maxsize=8, register=False)
        keys_per_thread = 200
        n_threads = 4

        def work(i):
            for j in range(keys_per_thread):
                c.put((i, j), j)

        run_threads(n_threads, work)
        snap = c.stats()
        inserted = n_threads * keys_per_thread  # all keys distinct
        assert snap.size <= 8
        assert snap.evictions == inserted - snap.size

    def test_maxsize_never_observed_exceeded(self):
        c = cache.BoundedCache("t_conc_max", maxsize=16, register=False)
        stop = threading.Event()
        violations = []

        def sampler():
            while not stop.is_set():
                if len(c) > 16:  # pragma: no cover
                    violations.append(len(c))

        watcher = threading.Thread(target=sampler)
        watcher.start()
        try:
            run_threads(
                4,
                lambda i: [c.put((i, j), j) for j in range(500)],
            )
        finally:
            stop.set()
            watcher.join()
        assert not violations


class TestFirstInsertionWins:
    def test_racing_get_or_create_agree_on_one_object(self):
        c = cache.BoundedCache("t_conc_win", maxsize=64, register=False)
        per_key_results: dict = {k: [] for k in range(8)}
        lock = threading.Lock()

        def work(i):
            for key in range(8):
                value = c.get_or_create(key, lambda: object())
                with lock:
                    per_key_results[key].append(value)

        run_threads(8, work)
        for key, values in per_key_results.items():
            assert len(values) == 8
            first = values[0]
            assert all(v is first for v in values), (
                f"key {key}: racing threads saw different objects"
            )

    def test_clear_is_not_resurrected_by_inflight_factory(self):
        c = cache.BoundedCache("t_conc_gen", maxsize=16, register=False)
        in_factory = threading.Event()
        release = threading.Event()
        out: list = []

        def compute():
            in_factory.set()
            release.wait()
            return "stale"

        worker = threading.Thread(
            target=lambda: out.append(c.get_or_create("k", compute))
        )
        worker.start()
        in_factory.wait()
        c.clear()  # invalidate while the factory is still running
        release.set()
        worker.join()
        # The caller still gets its value, but the cleared cache must
        # not have been repopulated with pre-clear state.
        assert out == ["stale"]
        missing = object()
        assert c.get("k", missing) is missing
        assert len(c) == 0


@st.composite
def op_schedules(draw):
    """A per-thread schedule of (op, key) cache operations."""
    ops = st.sampled_from(["get", "put", "get_or_create", "clear"])
    keys = st.integers(min_value=0, max_value=12)
    return draw(
        st.lists(
            st.tuples(ops, keys), min_size=1, max_size=40
        )
    )


class TestPropertyStress:
    @settings(max_examples=15, deadline=None)
    @given(
        schedules=st.lists(op_schedules(), min_size=2, max_size=4),
        maxsize=st.integers(min_value=1, max_value=8),
    )
    def test_random_concurrent_schedules_preserve_invariants(
        self, schedules, maxsize
    ):
        """Concurrent get/put/get_or_create/clear: no corruption."""
        c = cache.BoundedCache(
            "t_conc_prop", maxsize=maxsize, register=False
        )
        legal = {key: set() for key in range(13)}
        legal_lock = threading.Lock()

        def run_schedule(i):
            schedule = schedules[i]
            for op, key in schedule:
                if op == "get":
                    c.get(key)
                elif op == "put":
                    value = (i, key, "put")
                    with legal_lock:
                        legal[key].add(value)
                    c.put(key, value)
                elif op == "get_or_create":
                    value = (i, key, "created")
                    with legal_lock:
                        legal[key].add(value)
                    got = c.get_or_create(key, lambda v=value: v)
                    assert got[1] == key
                elif op == "clear":
                    c.clear()

        run_threads(len(schedules), run_schedule)
        # Size bound held and whatever survived is a value some
        # thread legitimately inserted under that key — no torn or
        # cross-key state.
        assert len(c) <= maxsize
        snap = c.stats()
        assert snap.hits + snap.misses == snap.lookups
        for key in range(13):
            sentinel = object()
            value = c.get(key, sentinel)
            if value is not sentinel:
                assert value in legal[key]


class TestThreadLocalToggle:
    """Regression: a worker bypassing the cache must not affect other
    threads."""

    def test_disabled_context_is_thread_local(self):
        seen = {}

        def other_thread():
            seen["enabled"] = cache.enabled()
            c = cache.BoundedCache(
                "t_tls_other", maxsize=4, register=False
            )
            seen["value"] = cache.cached(c, "k", lambda: "cached")
            seen["size"] = len(c)

        with cache.disabled():
            assert cache.enabled() is False
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        # The other thread kept caching while this one had it off.
        assert seen == {"enabled": True, "value": "cached", "size": 1}

    def test_worker_disable_does_not_leak_to_main(self):
        inside = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with cache.disabled():
                seen["worker"] = cache.enabled()
                inside.set()
                release.wait(10)

        t = threading.Thread(target=worker)
        t.start()
        try:
            assert inside.wait(10)
            # The worker is still inside its bypass.
            assert cache.enabled() is True
        finally:
            release.set()
            t.join()
        assert seen == {"worker": False}

    def test_intern_layout_respects_thread_local_toggle(self):
        from repro.core.layout import LinearLayout

        results = {}

        def interning_thread():
            layout = LinearLayout.identity1d(4, "reg", "out")
            results["interned"] = cache.intern_layout(layout)
            results["same"] = cache.intern_layout(
                LinearLayout.identity1d(4, "reg", "out")
            )

        with cache.disabled():
            t = threading.Thread(target=interning_thread)
            t.start()
            t.join()
        # Interning stayed active on the other thread.
        assert results["interned"] is results["same"]


class TestCountersAreThreadLocal:
    def test_other_threads_do_not_pollute_attribution(self):
        c = cache.BoundedCache("t_tls_cnt", maxsize=32, register=False)
        before = cache.counters()
        noise_done = threading.Event()

        def noisy():
            for j in range(100):
                c.get(("noise", j))
            noise_done.set()

        t = threading.Thread(target=noisy)
        t.start()
        t.join()
        assert noise_done.is_set()
        # 100 misses happened on the other thread; this thread's
        # counters (what the pass manager attributes per pass) are
        # untouched.
        delta = cache.counters_delta(before)
        assert delta == {"hits": 0, "misses": 0}
        c.put("mine", 1)
        c.get("mine")
        delta = cache.counters_delta(before)
        assert delta["hits"] == 1


@pytest.mark.parametrize("maxsize", [0, -3])
def test_invalid_maxsize_rejected(maxsize):
    with pytest.raises(ValueError):
        cache.BoundedCache("t_bad", maxsize=maxsize, register=False)


class TestDeferredAccessFirstRead:
    """Racing first reads of a plan's deferred access tables."""

    @staticmethod
    def _shared_plan():
        """A fresh 4-warp shared-memory plan and its eager twin."""
        import random

        from repro.codegen import plan_conversion
        from tests.test_random_layout_conversions import (
            random_distributed_layout,
        )

        rng = random.Random(7)
        src = random_distributed_layout(rng, 10)
        dst = random_distributed_layout(rng, 10)
        with cache.disabled():
            plan = plan_conversion(src, dst, elem_bits=16)
            eager = plan_conversion(src, dst, elem_bits=16)
        assert plan.kind == "shared"
        for instr in eager.program.instrs:
            if hasattr(instr, "accesses"):
                instr.accesses.base  # build the eager twin's tables
        return plan, eager

    def test_racing_first_reads_see_the_eager_value(self):
        import time

        from repro.gpusim import Machine, distributed_data, price_program
        from repro.hardware import RTX4090

        spec, warps = RTX4090, 4
        plan, eager = self._shared_plan()
        inputs = distributed_data(plan.src, warps, spec.warp_size)
        expected_files, expected_trace = Machine(spec, warps).run_conversion(
            eager, inputs
        )
        expected_prices = {
            w: price_program(eager.program, spec, warps=w).instructions
            for w in range(1, warps + 1)
        }
        pairs = [
            (instr.accesses, eager_instr.accesses)
            for instr, eager_instr in zip(plan.program.instrs, eager.program.instrs)
            if hasattr(instr, "accesses")
        ]
        builds = []
        for acc, _ in pairs:
            assert acc._build is not None
            real = acc._build

            def slow_build(real=real):
                builds.append(1)
                time.sleep(0.02)  # widen the race window
                return real()

            acc._build = slow_build
        finished = []  # workers done; appends are atomic

        def work(i):
            if i == 0:
                # Read heads while the others build: the head is never
                # gone before the full arrays are set.
                while len(finished) < 8:
                    for acc, want in pairs:
                        assert acc.leading(spec.warp_size) == want.leading(
                            spec.warp_size
                        )
                return
            try:
                if i % 3 == 1:
                    for acc, want in pairs:
                        assert acc.base.tolist() == want.base.tolist()
                        assert acc == want and acc.regs.shape == want.regs.shape
                elif i % 3 == 2:
                    w = 1 + i % warps
                    got = price_program(plan.program, spec, warps=w)
                    assert got.instructions == expected_prices[w]
                else:
                    files, trace = Machine(spec, warps).run_conversion(plan, inputs)
                    assert files.as_dict() == expected_files.as_dict()
                    assert trace.instructions == expected_trace.instructions
            finally:
                finished.append(i)

        run_threads(9, work)
        assert len(builds) == len(pairs)
        for acc, want in pairs:
            assert acc._head is None and acc == want
