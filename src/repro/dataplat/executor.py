"""Execution backends for the compute hot paths.

The paper's platform gets its throughput from parallel task execution on a
Spark/Hadoop cluster; this module is the reproduction's equivalent — a small
backend abstraction that every hot-path fan-out (forest fits, the extractor
fits and per-month builds of the wide table, sharded SQL scatter) goes
through:

* :class:`SerialBackend` — everything in-process, in submission order.  The
  default on a one-CPU host and the reference for parity testing.
* :class:`ProcessPoolBackend` — a ``concurrent.futures`` process pool
  whose workers are forked from the parent.  Its one primitive,
  :meth:`~ExecutorBackend.map_resident`, pickles only the callable and a
  small item, while a large *resident* object (a forest's training set, a
  wide-table builder, a sharded catalog) reaches the workers by fork, never
  by pickle.  A batch containing anything unpicklable (e.g. a user lambda)
  raises: nothing falls back to serial behind the caller's back.

The process-wide default (:func:`get_default_backend`) is the shared pool
when more than one CPU is usable, else serial; a forest fit too small to pay
for a fork runs inline (:func:`resolve_fit_backend`).

**Determinism contract.**  ``map_resident`` always returns results in
submission order, and callers pre-draw any randomness (bootstrap indices,
tree seeds) *before* submitting, so every backend produces bit-identical
results for the same task list.
"""

from __future__ import annotations

import itertools
import os
import pickle
import types
import weakref
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor

from ..errors import ExecutionError
from . import observability
from .observability import get_metrics, span

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "Resident",
    "INLINE_FIT_CELLS",
    "usable_cpus",
    "map_traced",
    "resolve_backend",
    "resolve_fit_backend",
    "get_default_backend",
    "set_default_backend",
]

#: A forest fit on the default backend whose ``rows × trees`` is below this
#: runs inline.  Every fit is a new resident, so the pool re-forks for it:
#: on a 2-vCPU host a tree grows at 3.3–5.6 µs per (row, tree) cell and a
#: 2-worker pool breaks even near 20 000 cells (16 000: 74 ms inline, 108
#: ms pooled; 32 000: 130 and 98 ms; 48 000: 159 and 105 ms).
INLINE_FIT_CELLS = 1 << 15


def usable_cpus() -> int:
    """CPUs this process may run on (affinity and cpuset pinning honoured)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - no affinity API


class ExecutorBackend:
    """Maps a picklable function over task items, preserving order."""

    #: Short backend kind, e.g. ``"serial"`` or ``"process"``.
    name = "abstract"

    @property
    def parallelism(self) -> int:
        """Number of tasks that can run at once."""
        return 1

    def map_resident(
        self, fn: Callable, resident, stamp, items: Sequence
    ) -> list:
        """``[fn(resident, item) for item in items]``, in item order.

        ``resident`` is a large object every task reads and none mutates;
        ``stamp`` is a cheap value that changes whenever its contents do.
        A backend whose workers live elsewhere must hand them the resident
        as of ``stamp``, never an older copy.
        """
        raise NotImplementedError

    def map(self, fn: Callable, items: Sequence) -> list:
        """``[fn(item) for item in items]``: :meth:`map_resident` with an
        empty resident, so ``fn`` travels pickled with every task."""
        return self.map_resident(_call, _NO_RESIDENT, 0, [(fn, i) for i in items])

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Resident(types.SimpleNamespace):
    """A fan-out's read-only inputs, bundled: unlike a tuple or a plain
    namespace it can be weakly referenced, as the resident registry needs."""


_NO_RESIDENT = Resident()


def _call(_resident, task):
    fn, item = task
    return fn(item)


class SerialBackend(ExecutorBackend):
    """Run every task inline, in submission order.

    A plain loop, so it opens no span of its own: a task's spans nest
    directly under the caller's, as if the caller had not fanned out.
    """

    name = "serial"

    def map_resident(
        self, fn: Callable, resident, stamp, items: Sequence
    ) -> list:
        return [fn(resident, item) for item in items]

    def __repr__(self) -> str:
        return "SerialBackend()"


class ProcessPoolBackend(ExecutorBackend):
    """Fan tasks out to a ``concurrent.futures`` process pool.

    Parameters
    ----------
    max_workers:
        Worker processes; 0 means one per usable CPU (:func:`usable_cpus`).

    The pool is created lazily on first use and survives across calls (so
    repeated fan-outs over one resident amortize worker start-up).  A batch
    whose function or items cannot be pickled raises the pickling error; a
    one-worker pool runs every batch inline.

    :meth:`map_resident` ships ``(fn, token, item)`` only: the workers
    find the resident under ``token`` in the registry they inherited at
    fork.  The pool remembers the registry's ``{token: stamp}`` snapshot
    it forked with and forks again only when the current one differs — a
    new resident, a changed stamp, or a dead resident pruned.  Every fork
    counts ``executor.pool_forks`` and tags its ``executor.map`` span
    ``forked=True``, so a caller mutating between calls shows up as fork
    churn in a trace.
    """

    name = "process"

    def __init__(self, max_workers: int = 0) -> None:
        if max_workers < 0:
            raise ExecutionError(f"max_workers must be >= 0, got {max_workers}")
        self._max_workers = max_workers if max_workers > 0 else usable_cpus()
        self._pool: ProcessPoolExecutor | None = None
        #: Registry snapshot the live pool's workers inherited.
        self._forked_with: dict | None = None
        #: Tasks actually executed in worker processes.
        self.tasks_dispatched = 0
        #: Times a worker pool was started (first use, close, stale resident).
        self.pool_forks = 0

    @property
    def parallelism(self) -> int:
        return self._max_workers

    def map_resident(
        self, fn: Callable, resident, stamp, items: Sequence
    ) -> list:
        items = list(items)
        if not items:
            return []
        with span(
            "executor.map",
            backend=self.name,
            tasks=len(items),
            workers=self._max_workers,
        ) as sp:
            if self._max_workers == 1:
                return [fn(resident, item) for item in items]
            token = _register_resident(resident, stamp)
            if self._forked_with != _resident_snapshot():
                self.close()
            if self._pool is None:
                self._fork()
                sp.set_tag("forked", True)
            tasks = [(fn, token, item) for item in items]
            chunksize = max(1, len(tasks) // (self._max_workers * 4))
            self.tasks_dispatched += len(tasks)
            get_metrics().counter("executor.tasks_dispatched").inc(len(tasks))
            return list(self._pool.map(_run_resident, tasks, chunksize=chunksize))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _fork(self) -> None:
        """Start workers that inherit the current resident registry.

        Fork, not spawn: workers inherit the parent's interpreter state
        (hash seed and residents included), and start-up is far cheaper.
        The workers fork on the pool's first submit, which follows at once
        in the same call, so the recorded snapshot is what they inherit.
        """
        mp_context = None
        try:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                mp_context = multiprocessing.get_context("fork")
        except (ImportError, ValueError):  # pragma: no cover
            mp_context = None
        self._pool = ProcessPoolExecutor(
            max_workers=self._max_workers, mp_context=mp_context
        )
        self._forked_with = _resident_snapshot()
        self.pool_forks += 1
        get_metrics().counter("executor.pool_forks").inc()

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(max_workers={self._max_workers})"

    # A backend owns OS resources; it never travels inside pickled tasks.
    def __reduce__(self):
        raise pickle.PicklingError("ProcessPoolBackend is not picklable")


#: Residents forked workers inherit: token -> (weak reference, stamp).
#: Tokens come from a counter, never ``id()``: a new object may reuse a
#: freed one's address and must not pass for it in a worker.
_residents: dict[int, tuple[weakref.ref, object]] = {}
_tokens = itertools.count(1)


def _register_resident(resident, stamp) -> int:
    """``resident``'s token, recording its current ``stamp``.

    Dead residents are pruned on the way, which changes the snapshot and
    so lets the next fork release the workers' copies of them.
    """
    found = None
    for token, (ref, _stamp) in list(_residents.items()):
        obj = ref()
        if obj is None:
            del _residents[token]
        elif obj is resident:
            found = token
    if found is None:
        found = next(_tokens)
    _residents[found] = (weakref.ref(resident), stamp)
    return found


def _resident_snapshot() -> dict:
    return {token: stamp for token, (_ref, stamp) in _residents.items()}


def _run_resident(task):
    """Worker trampoline: apply ``fn`` to the resident inherited at fork."""
    fn, token, item = task
    return fn(_residents[token][0](), item)


def map_traced(
    backend: ExecutorBackend, fn: Callable, resident, stamp, items: Sequence
) -> list:
    """``backend.map_resident(fn, resident, stamp, items)`` whose tasks'
    spans appear in the caller's trace.

    Under an active tracer every task runs under a fresh one and returns
    its exported spans with its result; they are grafted under the current
    span (:meth:`~repro.dataplat.observability.Tracer.attach`), so a trace
    holds the same spans whether a task ran in a worker or in process.
    """
    traced = observability.enabled()
    tracer = observability.get_tracer()
    out = []
    for result, spans in backend.map_resident(
        _traced_call, resident, stamp, [(fn, item, traced) for item in items]
    ):
        out.append(result)
        if spans:
            tracer.attach(spans)
    return out


def _traced_call(resident, task):
    """``fn(resident, item)`` and, when ``traced``, the spans it opened."""
    fn, item, traced = task
    if not traced:
        return fn(resident, item), None
    tracer = observability.Tracer()
    previous = observability.set_tracer(tracer)
    try:
        result = fn(resident, item)
    finally:
        observability.set_tracer(previous)
    return result, tracer.export()


def resolve_backend(backend: "ExecutorBackend | str | None") -> ExecutorBackend:
    """Normalize any backend spec to an :class:`ExecutorBackend` instance.

    Accepts an instance (returned as-is), a kind string (``"serial"`` /
    ``"process"``), or ``None`` for the process-wide default (see
    :func:`get_default_backend`).  ``"process"`` is one shared pool per
    process, created on first use; closing it only makes its next fan-out
    fork again.
    """
    global _shared_pool
    if backend is None:
        return get_default_backend()
    if isinstance(backend, ExecutorBackend):
        return backend
    if isinstance(backend, str):
        if backend == "serial" or (backend == "process" and _in_worker):
            return SerialBackend()
        if backend == "process":
            if _shared_pool is None:
                _shared_pool = ProcessPoolBackend()
            return _shared_pool
        raise ExecutionError(f"unknown backend kind {backend!r}")
    raise ExecutionError(f"cannot interpret backend spec {backend!r}")


def resolve_fit_backend(
    backend: "ExecutorBackend | str | None", cells: int
) -> ExecutorBackend:
    """:func:`resolve_backend` for a forest fit of ``cells`` = rows × trees.

    An explicit ``backend`` is always honoured; on the default, a fit below
    :data:`INLINE_FIT_CELLS` runs inline, where it is faster than a fork.
    """
    if backend is None and cells < INLINE_FIT_CELLS:
        return SerialBackend()
    return resolve_backend(backend)


_shared_pool: ProcessPoolBackend | None = None
_default_backend: ExecutorBackend | None = None
#: True in a forked child: a pool worker never fans out again.
_in_worker = False


def _reset_in_child() -> None:
    """A forked child owns none of the parent's pools and forks none of its
    own (their workers would hang the parent's shutdown)."""
    global _shared_pool, _default_backend, _in_worker
    _shared_pool = None
    _default_backend = None
    _in_worker = True


if hasattr(os, "register_at_fork"):  # absent only where nothing forks
    os.register_at_fork(after_in_child=_reset_in_child)


def get_default_backend() -> ExecutorBackend:
    """The process-wide default backend.

    The shared pool (``resolve_backend("process")``) when more than one CPU
    is usable, else serial — and always serial in a forked worker.
    """
    global _default_backend
    if _default_backend is None:
        _default_backend = (
            resolve_backend("process") if usable_cpus() > 1 else SerialBackend()
        )
    return _default_backend


def set_default_backend(backend: ExecutorBackend | None) -> None:
    """Override the process-wide default (``None`` restores the rule)."""
    global _default_backend
    _default_backend = backend
