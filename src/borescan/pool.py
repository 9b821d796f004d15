"""The in-order thread pool that ``synth`` and ``inspect`` both run tiles on."""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor

__all__ = ["map_in_order"]


def map_in_order(work, items, threads: int):
    """Yield ``work(item)`` for every item, in item order, from a thread pool.

    Items are submitted as results are taken, so at most ``threads + 1``
    are started and not yet let go, counting the result the caller holds.
    An error raised for one item is raised here in its place, after every
    result before it; items not yet started are cancelled.
    """
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
