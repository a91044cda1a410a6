"""AsyncioRuntime's timer heap and its wake source.

The live runtime keeps its own ``(deadline, seq, ...)`` heap and wakes
itself with one precise source: a CLOCK_MONOTONIC timerfd on Linux, or
``loop.call_at`` where there is none.  These tests hold it to the
kernel's firing order, the never-early rule, bounded memory under
restarting timers, local failures, fd release on shutdown, and
sub-millisecond precision where the timerfd is available.  The
``call_at`` wake is selected by patching the module's timerfd loader,
the same path a platform without timerfd takes.
"""

import asyncio
import gc
import os
import statistics
import subprocess
import sys

import pytest

from repro.runtime import LiveCluster, SimRuntime, asyncio_runtime, udp_cluster
from repro.runtime.asyncio_runtime import AsyncioRuntime
from repro.shard import LiveShardFabric
from repro.sim import Timer

HAS_TIMERFD = asyncio_runtime._load_timerfd() is not None


@pytest.fixture(params=["timerfd", "call_at"])
def wake(request, monkeypatch):
    """Each test runs once per wake source."""
    if request.param == "call_at":
        monkeypatch.setattr(asyncio_runtime, "_load_timerfd", lambda: None)
    elif not HAS_TIMERFD:
        pytest.skip("no timerfd on this platform")
    return request.param


def _wake_kind(rt):
    return ("timerfd" if isinstance(rt._wake, asyncio_runtime._TimerfdWake)
            else "call_at")


def _open_timerfds():
    """Timerfds this process holds open (Linux only)."""
    count = 0
    for name in os.listdir("/proc/self/fd"):
        try:
            if "timerfd" in os.readlink(f"/proc/self/fd/{name}"):
                count += 1
        except OSError:
            pass
    return count


# ----------------------------------------------------------------------
# firing order: the same script on the kernel and on the live runtime
# ----------------------------------------------------------------------

# Groups of deadlines sit 10 ms apart, so a loop stall shorter than that
# cannot reorder work a callback posts behind a later group.
STEP = 0.010


def _script(rt, fired):
    """post/post_at/schedule/schedule_at/call_soon/cancel, with equal
    deadlines, callbacks that post more work, and cancelled handles.
    ``fired`` collects ``(tag, due, fired_at)``."""
    t0 = rt.now

    def note(tag, due):
        fired.append((tag, due, rt.now))

    def post(delay, tag):
        rt.post(delay, note, tag, rt.now + delay)

    def parent(tag, due):
        note(tag, due)
        # More work from inside a callback: zero-delay work runs after
        # everything already due at the same deadline, FIFO.
        post(0.0, tag + ".post0")
        rt.call_soon(note, tag + ".soon", rt.now)
        post(2 * STEP, tag + ".later")

    def cancel_pending(tag, due, handle):
        note(tag, due)
        assert handle.active
        handle.cancel()

    # Equal absolute deadlines fire in submission order across all
    # four absolute/relative, handle/no-handle shapes.
    for tag, at in (("eq1", True), ("eq2", False), ("eq3", True),
                    ("eq4", False)):
        if at:
            rt.post_at(t0 + 3 * STEP, note, tag, t0 + 3 * STEP)
        else:
            rt.schedule_at(t0 + 3 * STEP, note, tag, t0 + 3 * STEP)
    rt.post_at(t0 + STEP, parent, "p1", t0 + STEP)
    rt.post_at(t0 + STEP, note, "same-as-p1", t0 + STEP)
    post(2 * STEP, "rel2")
    doomed = rt.schedule(4 * STEP, note, "cancelled", t0 + 4 * STEP)
    rt.schedule(2.5 * STEP, cancel_pending, "canceller", rt.now + 2.5 * STEP,
                doomed)
    soon_dropped = rt.call_soon(note, "soon-dropped", rt.now)
    rt.call_soon(note, "soon-kept", rt.now)
    soon_dropped.cancel()
    rt.schedule(5 * STEP, parent, "p2", rt.now + 5 * STEP)
    rt.post_at(t0 + 6 * STEP, note, "last", t0 + 6 * STEP)


def _run_on_kernel():
    sim = SimRuntime()
    fired = []
    _script(sim, fired)
    sim.run()
    return fired


def _run_live():
    async def scenario():
        rt = AsyncioRuntime()
        fired = []
        _script(rt, fired)
        await asyncio.sleep(10 * STEP)
        kind = _wake_kind(rt)
        rt.close()
        return fired, rt.events_processed, kind

    return asyncio.run(scenario())


def test_live_firing_order_matches_the_kernel(wake):
    expected = [tag for tag, _due, _at in _run_on_kernel()]
    fired, processed, kind = _run_live()
    assert kind == wake
    assert [tag for tag, _due, _at in fired] == expected
    assert processed == len(expected)
    assert "cancelled" not in expected and "soon-dropped" not in expected


def test_live_callbacks_never_fire_early(wake):
    fired, _processed, _kind = _run_live()
    # ``due`` and ``fired_at`` are both read off the re-based clock, so
    # they may round apart by a few ulps; 1 ns covers that and nothing
    # a real early wake would produce.
    early = [(tag, due, at) for tag, due, at in fired if at < due - 1e-9]
    assert not early


# ----------------------------------------------------------------------
# the heap: bounded under restarts, failures stay local
# ----------------------------------------------------------------------

def test_restarted_timer_keeps_the_heap_bounded(wake):
    """A timer restarted 10,000 times leaves one live entry and at most
    the compaction floor of tombstones, as on the kernel
    (tests/test_kernel_compaction.py)."""
    async def scenario():
        rt = AsyncioRuntime()
        ticks = []
        timer = Timer(rt, lambda: ticks.append(rt.now), 0.002)
        peak = 0
        for _ in range(10_000):
            timer.start()
            peak = max(peak, len(rt._heap))
        pending = rt.pending
        await asyncio.sleep(0.02)
        rt.close()
        return peak, pending, ticks, len(rt._heap)

    peak, pending, ticks, left = asyncio.run(scenario())
    assert peak < 2 * asyncio_runtime._COMPACT_MIN
    assert pending == 1
    assert len(ticks) == 1
    assert left == 0


def test_a_raising_callback_does_not_stop_later_ones(wake):
    async def scenario():
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(lambda _loop, ctx: reported.append(ctx))
        rt = AsyncioRuntime()
        fired = []

        def boom():
            raise RuntimeError("boom")

        at = rt.now + 0.002
        rt.post_at(at, boom)
        rt.post_at(at, fired.append, "same deadline")
        rt.schedule_at(at, boom)
        rt.post(0.004, fired.append, "later")
        await asyncio.sleep(0.02)
        # The wake was re-armed after the failures.
        rt.post(0.001, fired.append, "after")
        await asyncio.sleep(0.02)
        rt.close()
        return fired, reported, rt.events_processed

    fired, reported, processed = asyncio.run(scenario())
    assert fired == ["same deadline", "later", "after"]
    assert [type(ctx["exception"]) for ctx in reported] == [RuntimeError] * 2
    assert all("boom" in ctx["message"] for ctx in reported)
    assert processed == 5


def test_close_is_idempotent_and_silences_the_heap(wake):
    async def scenario():
        rt = AsyncioRuntime()
        fired = []
        rt.post(0.002, fired.append, "pending at close")
        rt.close()
        rt.close()
        rt.post(0.001, fired.append, "after close")
        await asyncio.sleep(0.02)
        return fired

    assert asyncio.run(scenario()) == []


def test_close_from_a_callback_stops_the_pump(wake):
    async def scenario():
        rt = AsyncioRuntime()
        fired = []
        at = rt.now + 0.002
        rt.post_at(at, fired.append, "before close")
        rt.post_at(at, rt.close)
        rt.post_at(at, fired.append, "after close")
        await asyncio.sleep(0.02)
        return fired

    assert asyncio.run(scenario()) == ["before close"]


# ----------------------------------------------------------------------
# lifecycle: no wake fd or reader survives a shutdown
# ----------------------------------------------------------------------

def _assert_released(loop, runtime):
    assert runtime._closed
    wake = runtime._wake
    if isinstance(wake, asyncio_runtime._TimerfdWake):
        assert not wake._closer.alive
        # remove_reader answers False when no reader is registered.
        assert not loop.remove_reader(wake.fd)
    else:
        assert wake._timer is None


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts timerfds through /proc/self/fd")
def test_cluster_and_fabric_shutdown_release_the_wake():
    before = _open_timerfds()

    async def scenario():
        loop = asyncio.get_running_loop()
        for build in (lambda: LiveCluster([1, 2, 3]),
                      lambda: udp_cluster([1, 2, 3])):
            cluster = build()
            cluster.start_all()
            await asyncio.sleep(0.05)
            cluster.shutdown()
            cluster.shutdown()
            _assert_released(loop, cluster.runtime)
        fabric = LiveShardFabric(num_shards=2, replicas_per_shard=3)
        fabric.start_all()
        await asyncio.sleep(0.05)
        fabric.shutdown()       # once per member, on one shared runtime
        fabric.shutdown()
        _assert_released(loop, fabric.clusters[0].runtime)
        return _open_timerfds()

    after = asyncio.run(scenario())
    assert after == before


@pytest.mark.skipif(not HAS_TIMERFD, reason="no timerfd on this platform")
def test_an_unclosed_runtime_releases_its_fd_when_collected():
    before = _open_timerfds()

    async def scenario():
        AsyncioRuntime().post(0.001, lambda: None)
        await asyncio.sleep(0.005)
        return _open_timerfds()

    during = asyncio.run(scenario())
    gc.collect()
    assert during == before + 1
    assert _open_timerfds() == before


def test_only_a_live_runtime_loads_ctypes():
    """Simulated runs import nothing new: ctypes loads when the first
    AsyncioRuntime is built, not when the packages are imported."""
    probe = (
        "import sys\n"
        "import repro.core, repro.runtime, repro.shard\n"
        "from repro.core import ReplicaCluster\n"
        "cluster = ReplicaCluster(n=3)\n"
        "cluster.start_all()\n"
        "cluster.run_for(0.5)\n"
        "assert 'ctypes' not in sys.modules, 'ctypes imported early'\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


# ----------------------------------------------------------------------
# precision
# ----------------------------------------------------------------------

@pytest.mark.skipif(not HAS_TIMERFD, reason="no timerfd on this platform")
def test_sub_millisecond_posts_fire_on_time():
    """50 sequential 0.4 ms posts on an idle loop: the epoll selector
    alone rounds each wait up to a whole millisecond (0.6-0.9 ms late);
    the timerfd wake fires them within a fraction of that."""
    async def scenario():
        rt = AsyncioRuntime()
        assert _wake_kind(rt) == "timerfd"
        loop = rt.loop
        lateness = []
        done = asyncio.Event()

        def tick(due):
            lateness.append(loop.time() - due)
            if len(lateness) == 50:
                done.set()
            else:
                rt.post(0.0004, tick, loop.time() + 0.0004)

        rt.post(0.0004, tick, loop.time() + 0.0004)
        await asyncio.wait_for(done.wait(), timeout=5.0)
        rt.close()
        return lateness

    lateness = asyncio.run(scenario())
    assert min(lateness) >= 0.0
    assert statistics.median(lateness) < 0.0003
