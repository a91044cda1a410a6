"""Wall-clock runtime on a real asyncio event loop.

Implements the :class:`~repro.runtime.base.Runtime` protocol over
``asyncio``: ``now`` is the loop's monotonic clock re-based to zero at
runtime creation.  Every callback handed to ``post``, ``post_at``,
``schedule``, ``schedule_at`` or ``call_soon`` goes onto the runtime's
own timer heap, not the loop's.  The heap follows the kernel's rules:
``(deadline, seq, ...)`` entries, FIFO among equal deadlines, lazy
cancellation with in-place compaction.  One pump runs every due entry
and re-arms a single wake source for the new head:

* on Linux, a ``timerfd`` on CLOCK_MONOTONIC (the loop's clock), armed
  at the head's absolute deadline and watched by ``loop.add_reader``.
  The loop's epoll selector rounds every timeout up to a whole
  millisecond, so a 0.4 ms ``loop.call_later`` fires up to a millisecond
  late; a readable fd ends the epoll wait at the deadline itself.
* elsewhere, ``loop.call_at`` at the head's deadline: kqueue and select
  already wait below a millisecond.

A callback never runs before its deadline: the pump runs only entries
due by a loop clock reading it took (one on entry, one after that
pass), and a wake that comes early just re-arms.  A callback that
raises is reported through ``loop.call_exception_handler``, as asyncio
reports a failing handle; the later due callbacks still run and the
wake is re-armed.
:meth:`AsyncioRuntime.close` releases the wake (reader and fd).

Semantics mirror :class:`~repro.sim.kernel.Simulator` where the
protocol stack can observe the difference:

* ``post``/``post_at`` allocate no handle and cannot be cancelled;
* ``schedule`` returns a handle whose ``active`` flag drops when the
  callback fires, not merely when it is cancelled (the GCS timers poll
  ``armed``);
* ``call_soon`` is a zero-delay ``schedule``: it runs after everything
  already due;
* negative delays raise :class:`~repro.sim.kernel.SimulationError`
  exactly like the kernel, so timer misuse fails identically under
  both runtimes.

One deliberate divergence: ``post_at``/``schedule_at`` with a time in
the past *clamp to now* instead of raising.  Virtual time never drifts,
wall-clock time always does; a live component computing an absolute
deadline from a slightly stale ``now`` must not crash the node.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import sys
import time
import weakref
from heapq import heapify, heappop, heappush
from typing import (Any, Callable, Iterator, List, Optional, Tuple,
                    Union)

from ..sim.kernel import _COMPACT_MIN, SimulationError

Callback = Callable[..., None]

_INF = float("inf")
_TFD_TIMER_ABSTIME = 1


class AsyncioHandle:
    """Cancellable reference to a callback on the runtime's heap.

    Mirrors :class:`~repro.sim.kernel.EventHandle`: ``active`` is False
    once the callback fired or was cancelled.
    """

    __slots__ = ("_runtime", "callback", "args", "_cancelled", "_fired")

    def __init__(self, runtime: "AsyncioRuntime", callback: Callback,
                 args: Tuple[Any, ...]) -> None:
        self._runtime = runtime
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if not self._cancelled:
            self._cancelled = True
            if not self._fired:
                self._runtime._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def active(self) -> bool:
        return not (self._cancelled or self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else (
            "fired" if self._fired else "pending")
        return f"<AsyncioHandle {state}>"


# ----------------------------------------------------------------------
# wake sources
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _load_timerfd() -> Optional[Tuple[Any, Any, Any]]:
    """``(timerfd_create, timerfd_settime, itimerspec type)`` from libc
    through ctypes, or None where the platform has no timerfd.  ctypes
    is imported here, so only a live runtime ever loads it."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        create = libc.timerfd_create
        settime = libc.timerfd_settime
    except (OSError, AttributeError):
        return None

    class Itimerspec(ctypes.Structure):
        # struct itimerspec flattened: it_interval, then it_value, each
        # a struct timespec of two longs.
        _fields_ = [("interval_sec", ctypes.c_long),
                    ("interval_nsec", ctypes.c_long),
                    ("value_sec", ctypes.c_long),
                    ("value_nsec", ctypes.c_long)]

    create.argtypes = (ctypes.c_int, ctypes.c_int)
    create.restype = ctypes.c_int
    settime.argtypes = (ctypes.c_int, ctypes.c_int,
                        ctypes.POINTER(Itimerspec), ctypes.c_void_p)
    settime.restype = ctypes.c_int
    return create, settime, Itimerspec


def _libc_error(call: str) -> OSError:
    import ctypes
    errno = ctypes.get_errno()
    return OSError(errno, f"{call}: {os.strerror(errno)}")


class _TimerfdWake:
    """A one-shot CLOCK_MONOTONIC timerfd watched by ``loop.add_reader``
    and armed at an absolute deadline.

    The fd is never read: ``timerfd_settime`` resets the expiry count,
    which clears readability, and the pump re-arms or disarms the fd
    after every wake.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 on_wake: Callable[[], None],
                 api: Tuple[Any, Any, Any]) -> None:
        create, self._settime, spec_type = api
        fd = create(time.CLOCK_MONOTONIC, os.O_NONBLOCK | os.O_CLOEXEC)
        if fd < 0:
            raise _libc_error("timerfd_create")
        self.fd: int = fd
        self._spec = spec_type()
        self._loop = loop
        # Closes the fd if the runtime is dropped without close(), e.g.
        # when its loop ends first.
        self._closer = weakref.finalize(self, os.close, fd)
        loop.add_reader(fd, on_wake)

    def arm(self, deadline: float) -> None:
        # One nanosecond past the truncated deadline: never early.
        self._set(_TFD_TIMER_ABSTIME, int(deadline * 1e9) + 1)

    def disarm(self) -> None:
        self._set(0, 0)

    def _set(self, flags: int, value_ns: int) -> None:
        spec = self._spec
        spec.value_sec, spec.value_nsec = divmod(value_ns, 1_000_000_000)
        if self._settime(self.fd, flags, spec, None) < 0:
            raise _libc_error("timerfd_settime")

    def close(self) -> None:
        if self._closer.alive:
            self._loop.remove_reader(self.fd)
            self._closer()


class _LoopWake:
    """``loop.call_at`` at the head's deadline, for loops whose
    selector already waits below a millisecond (kqueue, select)."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 on_wake: Callable[[], None]) -> None:
        self._loop = loop
        self._on_wake = on_wake
        self._timer: Optional[asyncio.TimerHandle] = None

    def arm(self, deadline: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(deadline, self._fire)

    def _fire(self) -> None:
        self._timer = None
        self._on_wake()

    def disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    close = disarm


def _open_wake(loop: asyncio.AbstractEventLoop,
               on_wake: Callable[[], None]) -> Union[_TimerfdWake, _LoopWake]:
    """The timerfd wake where there is one and the loop's clock is
    CLOCK_MONOTONIC (what ``time.monotonic`` reads on Linux), so an fd
    deadline is a loop deadline; else the ``call_at`` wake."""
    api = _load_timerfd()
    if api is not None:
        before = time.monotonic()
        reading = loop.time()
        if before <= reading <= time.monotonic():
            return _TimerfdWake(loop, on_wake, api)
    return _LoopWake(loop, on_wake)


class AsyncioRuntime:
    """The :class:`Runtime` protocol over a live asyncio event loop.

    Construct it inside a running loop (or pass one explicitly); drive
    it with ordinary ``await asyncio.sleep(...)`` — the loop wakes the
    runtime's pump, there is no ``run()`` to call.  ``stop()`` flips
    :attr:`stopped` (an :class:`asyncio.Event`) so a host harness
    awaiting :meth:`wait_stopped` can shut the deployment down;
    ``close()`` releases the wake source at the end of the deployment.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None):
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._origin = self._loop.time()
        self._events_processed = 0
        self.stopped = asyncio.Event()
        self._heap: List[tuple] = []
        self._seq: Iterator[int] = itertools.count()
        # lazily-cancelled AsyncioHandle entries still in the heap
        self._cancelled_in_heap = 0
        # The deadline the wake is armed for: +inf when unarmed, -inf
        # while the pump runs and once closed.  A push arms the wake
        # only when it lands before this, so mid-pump pushes never do.
        self._armed = _INF
        self._closed = False
        self._wake = _open_wake(self._loop, self._on_wake)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since this runtime was created (monotonic)."""
        return self._loop.time() - self._origin

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    @property
    def events_processed(self) -> int:
        """Callbacks dispatched through this runtime so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Callbacks on the heap that are not cancelled."""
        return len(self._heap) - self._cancelled_in_heap

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def post(self, delay: float, callback: Callback, *args: Any) -> None:
        """Fire-and-forget ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        deadline = self._loop.time() + delay
        heappush(self._heap, (deadline, next(self._seq), callback, args))
        if deadline < self._armed:
            self._arm(deadline)

    def post_at(self, time: float, callback: Callback, *args: Any) -> None:
        """Fire-and-forget at absolute runtime time ``time`` (clamped to
        now if the wall clock already passed it)."""
        when = self._origin + time
        loop_now = self._loop.time()
        deadline = when if when > loop_now else loop_now
        heappush(self._heap, (deadline, next(self._seq), callback, args))
        if deadline < self._armed:
            self._arm(deadline)

    def schedule(self, delay: float, callback: Callback,
                 *args: Any) -> AsyncioHandle:
        """Cancellable ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self._push_handle(self._loop.time() + delay, callback, args)

    def schedule_at(self, time: float, callback: Callback,
                    *args: Any) -> AsyncioHandle:
        """Cancellable schedule at absolute runtime time ``time``."""
        when = self._origin + time
        loop_now = self._loop.time()
        return self._push_handle(when if when > loop_now else loop_now,
                                 callback, args)

    def call_soon(self, callback: Callback, *args: Any) -> AsyncioHandle:
        """Run ``callback(*args)`` after everything already due.  FIFO
        among ``call_soon`` callers, like the kernel."""
        return self._push_handle(self._loop.time(), callback, args)

    def _push_handle(self, deadline: float, callback: Callback,
                     args: Tuple[Any, ...]) -> AsyncioHandle:
        handle = AsyncioHandle(self, callback, args)
        heappush(self._heap, (deadline, next(self._seq), handle))
        if deadline < self._armed:
            self._arm(deadline)
        return handle

    # ------------------------------------------------------------------
    # the heap and its wake
    # ------------------------------------------------------------------
    def _arm(self, deadline: float) -> None:
        self._armed = deadline
        self._wake.arm(deadline)

    def _note_cancel(self) -> None:
        self._cancelled_in_heap += 1
        heap = self._heap
        if (len(heap) >= _COMPACT_MIN
                and self._cancelled_in_heap * 2 > len(heap)):
            # In place, so the pump's alias stays valid; heapify keeps
            # the firing order, since (deadline, seq) is a total order.
            heap[:] = [entry for entry in heap
                       if len(entry) != 3 or not entry[2]._cancelled]
            heapify(heap)
            self._cancelled_in_heap = 0

    def _on_wake(self) -> None:
        """The pump: run every entry due by the loop clock, read on
        entry and once more after that pass, then re-arm the wake for
        the new head.  The second look catches work that came due while
        the first pass ran, without a wake of its own; work due after
        that waits for the next wake, so I/O gets a turn."""
        heap = self._heap
        self._armed = -_INF
        try:
            self._run_due(self._loop.time())
            self._run_due(self._loop.time())
        finally:
            if not self._closed:
                self._armed = _INF
                while heap and len(heap[0]) == 3 and heap[0][2]._cancelled:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                if heap:
                    self._arm(heap[0][0])
                else:
                    self._wake.disarm()

    def _run_due(self, now: float) -> None:
        heap = self._heap
        while heap and heap[0][0] <= now and not self._closed:
            entry = heappop(heap)
            try:
                if len(entry) == 4:
                    self._dispatch(entry[2], entry[3])
                    continue
                handle = entry[2]
                if handle._cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                self._dispatch_handle(handle, handle.callback, handle.args)
            except Exception as exc:
                self._report(exc, entry)

    def _report(self, exc: Exception, entry: tuple) -> None:
        callback = entry[2] if len(entry) == 4 else entry[2].callback
        self._loop.call_exception_handler({
            "message": f"Exception in callback {callback!r}",
            "exception": exc})

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, callback: Callback, args: tuple) -> None:
        self._events_processed += 1
        callback(*args)

    def _dispatch_handle(self, handle: AsyncioHandle, callback: Callback,
                         args: tuple) -> None:
        handle._fired = True
        self._events_processed += 1
        callback(*args)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Signal the hosting harness to shut down (sets :attr:`stopped`)."""
        self.stopped.set()

    def close(self) -> None:
        """Release the wake source (reader and fd).  Idempotent; what is
        still on the heap never fires."""
        if not self._closed:
            self._closed = True
            self._armed = -_INF
            self._wake.close()

    async def wait_stopped(self) -> None:
        await self.stopped.wait()

    async def sleep(self, duration: float) -> None:
        """Let the deployment run for ``duration`` wall-clock seconds."""
        await asyncio.sleep(duration)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<AsyncioRuntime now={self.now:.6f} "
                f"pending={self.pending} "
                f"processed={self._events_processed}>")
