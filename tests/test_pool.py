"""The worker pools: inspect's in-order thread pool and synth's forked
processes."""

import multiprocessing
import os
import threading
import time

import pytest

from borescan import pool
from borescan.errors import WorkerError
from borescan.pool import map_in_order, run_forked


def test_yields_in_item_order_when_later_items_finish_first():
    def work(i):
        time.sleep(0.002 * (4 - i % 4))
        return i * i

    assert list(map_in_order(work, range(12), 3)) == [i * i for i in range(12)]


def test_error_is_raised_in_place_after_every_earlier_result():
    started = []
    lock = threading.Lock()

    def work(i):
        with lock:
            started.append(i)
        if i == 5:
            raise ValueError(i)
        return i

    taken = []
    with pytest.raises(ValueError):
        for value in map_in_order(work, range(100), 2):
            taken.append(value)
    assert taken == [0, 1, 2, 3, 4]
    # items past the window were never submitted
    assert max(started) <= 5 + 2


def _recording(directory, fail=(), die=()):
    """Work that writes the pid of the process that ran each item to a file,
    so items run in forked children show in the caller."""

    def work(i):
        if i in die:
            os._exit(5)
        (directory / str(i)).write_text(str(os.getpid()))
        if i in fail:
            raise ValueError(i)

    return work


def _pids(directory):
    return {int(path.name): int(path.read_text()) for path in directory.iterdir()}


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_process_p_takes_items_p_plus_multiples_of_the_count(tmp_path, processes):
    assert run_forked(_recording(tmp_path), 10, processes) is None
    pids = _pids(tmp_path)
    assert sorted(pids) == list(range(10))
    # the caller is process 0; each other process is one forked child
    assert {pids[i] for i in range(0, 10, processes)} == {os.getpid()}
    for first in range(1, processes):
        assert len({pids[i] for i in range(first, 10, processes)}) == 1
    assert len(set(pids.values())) == processes
    assert multiprocessing.active_children() == []


def test_no_more_processes_than_items(tmp_path):
    assert run_forked(_recording(tmp_path), 2, 4) is None
    assert len(set(_pids(tmp_path).values())) == 2
    assert run_forked(_recording(tmp_path), 0, 4) is None


def test_first_failure_in_item_order_with_every_item_before_it_done(tmp_path):
    # 6 fails in the caller, process 0, and 5 in process 2 of three
    index, error = run_forked(_recording(tmp_path, fail={5, 6}), 12, 3)
    assert index == 5 and isinstance(error, ValueError) and error.args == (5,)
    done = set(_pids(tmp_path))
    assert set(range(5)) <= done
    # each process stopped at its own first failure
    assert {8, 9, 11} & done == set()
    assert {1, 4, 7, 10} <= done
    assert multiprocessing.active_children() == []


def test_a_dead_worker_fails_at_its_first_item(tmp_path):
    index, error = run_forked(_recording(tmp_path, die={4}), 9, 3)
    assert index == 1 and isinstance(error, WorkerError)
    assert "exit code 5" in str(error)
    assert multiprocessing.active_children() == []


def test_a_worker_takes_no_item_once_its_parent_is_gone(tmp_path):
    # a parent pid other than this process's parent: an orphan's view
    assert pool._take(_recording(tmp_path), range(3), os.getppid() + 1) is None
    assert list(tmp_path.iterdir()) == []
    assert pool._take(_recording(tmp_path), range(3), os.getppid()) is None
    assert sorted(_pids(tmp_path)) == [0, 1, 2]
