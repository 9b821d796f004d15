"""The worker pools: ``inspect``'s in-order thread pool and ``synth``'s
forked processes. Each imports its machinery (``concurrent.futures``, which
loads ``logging``, or ``multiprocessing``) when it runs: ``plan`` uses neither."""

from __future__ import annotations

import os
from collections import deque

from .errors import WorkerError

__all__ = ["map_in_order", "run_forked"]


def map_in_order(work, items, threads: int):
    """Yield ``work(item)`` for every item, in item order, from a thread pool.

    ``inspect`` reads and corrects its tiles on it: the stitch needs every
    tile back in the calling process, so threads that share its memory
    serve it better than processes.

    Items are submitted as results are taken, so at most ``threads + 1``
    are started and not yet let go, counting the result the caller holds.
    An error raised for one item is raised here in its place, after every
    result before it; items not yet started are cancelled.
    """
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=threads)
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(work, item))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_forked(work, count: int, processes: int):
    """Call ``work(i)`` for every ``i`` in ``range(count)`` on ``processes``
    processes, the caller one of them, and return the first failure.

    Process p takes items p, p + processes, and so on, and stops at its
    first error. The others are forked with ``multiprocessing``'s fork
    context, which flushes the std streams first and ends each child with
    ``os._exit``, so ``work`` and all it reads reach them without pickling;
    a child takes no further item once its parent has gone. The caller
    must hold no threads. With one process, or on a platform without
    ``os.fork``, everything runs in the caller.

    Returns once every child has ended: None if every item succeeded, or
    ``(index, exception)`` for the lowest index that failed, every item
    below it having succeeded. A child that ends without reporting fails
    at its first item with :class:`WorkerError`.
    """
    processes = max(1, min(processes, count)) if hasattr(os, "fork") else 1
    if processes > 1:
        import multiprocessing

        context = multiprocessing.get_context("fork")
    children = []
    finished = False
    try:
        for first in range(1, processes):
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(
                target=_report,
                args=(work, range(first, count, processes), os.getpid(), writer),
            )
            child.start()
            # the parent's copy closed, the reader sees EOF if the child dies
            writer.close()
            children.append((first, child, reader))
        failures = [_take(work, range(0, count, processes))]
        for first, child, reader in children:
            try:
                failures.append(reader.recv())
            except EOFError:
                child.join()
                failures.append((first, WorkerError(
                    f"worker process {child.pid} ended with exit code "
                    f"{child.exitcode} before reporting"
                )))
        finished = True
    finally:
        for _, child, reader in children:
            if not finished:
                child.terminate()
            child.join()
            reader.close()
    return min(
        (failure for failure in failures if failure is not None),
        key=lambda failure: failure[0],
        default=None,
    )


def _take(work, items, parent: int | None = None):
    """Run ``work`` on ``items`` in turn, stopping at the first that raises.

    Returns ``(index, exception)`` for that item, or None. With a
    ``parent`` pid, stops too once this process's parent is another: a
    forked worker does not outlive its ``synth`` by more than one item.
    """
    for item in items:
        if parent is not None and os.getppid() != parent:
            break
        try:
            work(item)
        except Exception as exc:  # sent to the parent, which raises it
            return item, exc
    return None


def _report(work, items, parent: int, writer) -> None:
    """A forked worker's body: send ``_take``'s result on ``writer``.

    An orphan sends nothing, since no one reads it.
    """
    failure = _take(work, items, parent)
    if os.getppid() == parent:
        writer.send(failure)
    writer.close()
