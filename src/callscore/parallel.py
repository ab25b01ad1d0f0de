"""The one fork pool that stages use to work on more than one core.

`fork_map` runs `fn(shared, task)` for each task and yields the results in
task order. Train grows its trees in it, each worker gathering the train and
test matrices of a forest's problem from the feature matrix it inherits;
eval walks a forest for the permutation importance in one part of the
tested features per worker; exposure propagates one graph per task, ingest
reads the bank files beside the CDR parse, and the feature matrix formats
its text in row blocks. The data stage does not use it: a worker writing the
call log beside the bank files saved time only on logs of about a million
calls and lost it on logs of tens of thousands.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager


def worker_count(n_tasks: int) -> int:
    """Processes to work in: one per CPU this process may run on, at most one per task."""
    return max(1, min(len(os.sched_getaffinity(0)), n_tasks))


# Set only in pool workers, which inherit them by fork instead of receiving them pickled.
_inherited: tuple = (None, None)


def _inherit(fn, shared) -> None:
    global _inherited
    _inherited = fn, shared


def _call(task):
    fn, shared = _inherited
    return fn(shared, task)


@contextmanager
def fork_map(fn, tasks, shared=None, *, beside: int = 0):
    """An iterator over `fn(shared, task)` for each of `tasks`, in task order.

    With more than one process to work in, the tasks run in a fork pool that
    starts on entry: its workers inherit `fn` and `shared` instead of
    unpickling them, and only the tasks and results are pickled. `beside`
    counts tasks the caller does itself while the pool works, so one task
    beside one of the caller's still gets a worker of its own. With one
    process, each task runs in this process when the iterator reaches it.
    A task's exception is raised where its result is read, and leaving the
    block ends the pool.

    A task must call no BLAS: a fork does not copy the threads a BLAS library
    started in the parent, and a call in the child can wait on them forever.
    """
    tasks = list(tasks)
    processes = worker_count(len(tasks) + beside)
    if processes == 1:
        yield (fn(shared, task) for task in tasks)
        return
    workers = processes - beside
    # batches of up to 8 tasks spare a round trip per small task; at least
    # 16 batches per worker keep the last ones ending close together
    chunksize = max(1, min(8, len(tasks) // (16 * workers)))
    context = multiprocessing.get_context("fork")
    with context.Pool(workers, initializer=_inherit, initargs=(fn, shared)) as pool:
        yield pool.imap(_call, tasks, chunksize=chunksize)
