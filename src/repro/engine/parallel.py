"""Ordered process-pool fan-out for the experiment harness.

:func:`map_items` is the one fan-out primitive: it maps a function over
independent work items — the sweep executor's shards of cells — across
up to ``workers`` processes and commits results strictly in item order.
Every item is deterministic in its own inputs, so ``workers=N`` returns
exactly what ``workers=1`` returns; only the wall clock changes.

Callables and items must be picklable (module-level functions or
``functools.partial`` over them) when ``workers > 1``, since they cross a
process boundary.  Pool workers exit once the process that started
them is gone (:func:`exit_with_parent`).
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
import typing

T = typing.TypeVar("T")
U = typing.TypeVar("U")


def resolve_workers(workers: typing.Optional[int]) -> int:
    """Normalize a ``workers`` argument; ``None`` means serial (1).

    Raises:
        ValueError: if ``workers`` is given and not a positive integer.
    """
    if workers is None:
        return 1
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    return int(workers)


def exit_with_parent() -> None:
    """Process initializer: exit this process once its parent is gone.

    A parent killed by SIGKILL cannot shut down its pool.  Reparented,
    each pool worker would compute the cells already queued to it and
    then wait forever.  The cache commits each cell atomically, so
    exiting mid-cell just leaves that cell pending.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def map_items(
    fn: typing.Callable[[U], T],
    items: typing.Sequence[U],
    workers: typing.Optional[int] = None,
    on_commit: typing.Optional[typing.Callable[[int, T], None]] = None,
) -> typing.List[T]:
    """Map ``fn`` over ``items``, optionally in a process pool.

    Result ``i`` is always ``fn(items[i])``, and ``on_commit(i, result)``
    fires per result in item order whatever the worker count — the
    progress signal the sweep journal builds on.  The results are the
    only way anything travels from a worker back to the caller.
    ``on_commit`` observes them; it must not mutate them.
    """
    item_tuple = tuple(items)
    n_workers = resolve_workers(workers)
    results: typing.List[T] = []
    if n_workers == 1 or len(item_tuple) <= 1:
        for index, item in enumerate(item_tuple):
            results.append(fn(item))
            if on_commit is not None:
                on_commit(index, results[-1])
        return results
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=n_workers, initializer=exit_with_parent
    ) as pool:
        futures = [pool.submit(fn, item) for item in item_tuple]
        for index, future in enumerate(futures):
            results.append(future.result())
            if on_commit is not None:
                on_commit(index, results[-1])
    return results
