"""The in-order thread pool shared by synth and inspect."""

import threading
import time

import pytest

from borescan.pool import map_in_order


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
