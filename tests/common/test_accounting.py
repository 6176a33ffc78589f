"""Tests for memory budgets and counters."""

import threading

import pytest

from repro.common.accounting import Counters, IOCounters, MemoryBudget
from repro.common.errors import MemoryBudgetExceeded


class TestMemoryBudget:
    def test_allocate_and_release(self):
        budget = MemoryBudget(100)
        budget.allocate(40)
        budget.allocate(30)
        assert budget.used == 70
        assert budget.remaining == 30
        budget.release(50)
        assert budget.used == 20

    def test_over_allocation_raises(self):
        budget = MemoryBudget(100)
        budget.allocate(90)
        with pytest.raises(MemoryBudgetExceeded) as info:
            budget.allocate(20, what="messages")
        assert info.value.requested == 20
        assert info.value.used == 90
        assert "messages" in str(info.value)

    def test_failed_allocation_leaves_usage_unchanged(self):
        budget = MemoryBudget(10)
        with pytest.raises(MemoryBudgetExceeded):
            budget.allocate(11)
        assert budget.used == 0

    def test_peak_tracking(self):
        budget = MemoryBudget(100)
        budget.allocate(80)
        budget.release(70)
        budget.allocate(20)
        assert budget.peak == 80

    def test_release_more_than_used_raises(self):
        budget = MemoryBudget(10)
        budget.allocate(5)
        with pytest.raises(ValueError):
            budget.release(6)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget(-1)

    def test_reset(self):
        budget = MemoryBudget(10)
        budget.allocate(7)
        budget.reset()
        assert budget.used == 0

    def test_reset_clears_peak(self):
        # Regression: reset() used to clear only _used, leaking one
        # job's high-water mark into the next job's report.
        budget = MemoryBudget(100)
        budget.allocate(80)
        budget.reset()
        assert budget.peak == 0
        budget.allocate(30)
        assert budget.peak == 30


class TestIOCounters:
    def test_recording(self):
        io = IOCounters()
        io.record_read(100)
        io.record_write(200)
        io.record_network(50, messages=3)
        snap = io.snapshot()
        assert snap["disk_reads"] == 1
        assert snap["disk_read_bytes"] == 100
        assert snap["disk_write_bytes"] == 200
        assert snap["network_bytes"] == 50
        assert snap["network_messages"] == 3


class TestCounters:
    def test_add_get(self):
        counters = Counters()
        counters.add("messages", 5)
        counters.add("messages", 2)
        assert counters.get("messages") == 7
        assert counters.get("missing") == 0
        assert counters.snapshot() == {"messages": 7}


class TestThreadSafety:
    def test_concurrent_io_recording(self):
        io = IOCounters()

        def spin():
            for _ in range(2000):
                io.record_read(1)
                io.record_network(2)

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert io.disk_reads == 8000
        assert io.disk_read_bytes == 8000
        assert io.network_bytes == 16000

    def test_concurrent_counter_adds(self):
        counters = Counters()

        def spin():
            for _ in range(2000):
                counters.add("messages")

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counters.get("messages") == 8000
