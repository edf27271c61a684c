"""Unit tests for the cache hierarchy / DRAM contention model.

``access`` returns the footprint's memory seconds; the DRAM bytes of one
access are the change it makes to ``counters.bytes_dram``.
"""

import pytest

from repro.memory.hierarchy import MemCounters, MemoryHierarchy
from repro.memory.machine import tiny_test_machine


@pytest.fixture
def hier():
    return MemoryHierarchy(tiny_test_machine(2))


def dram_bytes(hier, *args, **kwargs):
    """DRAM bytes of one ``access``: its ``counters.bytes_dram`` delta."""
    before = hier.counters.bytes_dram
    hier.access(*args, **kwargs)
    return hier.counters.bytes_dram - before


class TestLevels:
    def test_cold_access_hits_dram(self, hier):
        assert dram_bytes(hier, 0, [(1, 512)]) == 512
        assert hier.counters.l3_misses > 0

    def test_immediate_reuse_hits_l1(self, hier):
        hier.access(0, [(1, 512)])
        before = hier.counters.l1_misses
        assert dram_bytes(hier, 0, [(1, 512)]) == 0
        assert hier.counters.l1_misses == before
        assert hier.counters.bytes_l1 == 512

    def test_other_worker_hits_shared_l3(self, hier):
        hier.access(0, [(1, 512)])
        assert dram_bytes(hier, 1, [(1, 512)]) == 0
        assert hier.counters.bytes_l3 == 512

    def test_l1_eviction_falls_to_l2(self, hier):
        m = hier.machine
        # Fill L1 (1 KiB) with other chunks; chunk 1 should land in L2.
        hier.access(0, [(1, 512)])
        hier.access(0, [(2, 512), (3, 512)])
        assert dram_bytes(hier, 0, [(1, 512)]) == 0
        assert hier.counters.bytes_l2 >= 512

    def test_miss_counting_in_lines(self, hier):
        hier.access(0, [(1, 640)])  # 10 lines of 64B
        assert hier.counters.l1_misses == 10
        assert hier.counters.l2_misses == 10
        assert hier.counters.l3_misses == 10

    def test_stall_cycles_accumulate(self, hier):
        hier.access(0, [(1, 640)])
        c = hier.counters
        assert c.l3_stall_cycles > 0
        assert c.total_stall_cycles == pytest.approx(
            c.l1_stall_cycles + c.l2_stall_cycles + c.l3_stall_cycles
        )

    def test_empty_footprint(self, hier):
        assert hier.access(0, []) == 0.0

    def test_zero_byte_chunk_skipped(self, hier):
        assert hier.access(0, [(1, 0)]) == 0.0

    def test_bad_worker_rejected(self, hier):
        with pytest.raises(IndexError):
            hier.access(7, [(1, 64)])


class TestContention:
    def test_dram_sharing_slows_access(self, hier):
        t1 = hier.access(0, [(1, 4096)], dram_sharers=1)
        hier.reset()
        t2 = hier.access(0, [(1, 4096)], dram_sharers=2)
        assert t2 > t1
        assert t2 == pytest.approx(
            4096 / (hier.machine.dram_bw / 2), rel=1e-6
        )

    def test_cached_access_unaffected_by_sharers(self, hier):
        hier.access(0, [(1, 512)])
        t1 = hier.access(0, [(1, 512)], dram_sharers=1)
        t2 = hier.access(0, [(1, 512)], dram_sharers=8)
        assert t1 == pytest.approx(t2)


class TestStreaming:
    def test_stream_time_is_bandwidth_bound(self, hier):
        t = hier.stream_time(1_000_000, threads=2)
        assert t == pytest.approx(1_000_000 / hier.machine.dram_bw)

    def test_stream_counts_misses(self, hier):
        hier.stream_time(1_000_000, threads=1)
        assert hier.counters.l3_misses == -(-1_000_000 // 64)

    def test_chunked_stream_reuses_l3(self, hier):
        """A chunk already resident in L3 streams from there, not DRAM."""
        hier.stream([(1, 6400)], threads=2)
        assert hier.counters.bytes_dram == 6400
        t = hier.stream([(1, 6400)], threads=2)
        assert hier.counters.bytes_dram == 6400  # unchanged: L3 hit
        assert t == pytest.approx(6400 / (hier.machine.l3_bw * 2))

    def test_chunked_stream_cycling_workset_misses(self, hier):
        """Chunks cycling through a too-small L3 always pay DRAM."""
        big = hier.machine.l3_bytes // 2 + 1
        for _ in range(3):
            hier.stream([(1, big), (2, big), (3, big)], threads=1)
        assert hier.counters.bytes_l3 == 0
        assert hier.counters.bytes_dram == 9 * big

    def test_stream_negative_rejected(self, hier):
        with pytest.raises(ValueError):
            hier.stream_time(-1, threads=1)


class TestReset:
    def test_reset_clears_everything(self, hier):
        hier.access(0, [(1, 512)])
        hier.reset()
        assert hier.counters.l1_misses == 0
        assert dram_bytes(hier, 0, [(1, 512)]) == 512


class TestCounters:
    def test_merge(self):
        a = MemCounters(l1_misses=1, bytes_dram=10)
        b = MemCounters(l1_misses=2, l3_misses=5, bytes_dram=20)
        a.merge(b)
        assert a.l1_misses == 3
        assert a.l3_misses == 5
        assert a.bytes_dram == 30
