"""Cache hierarchy: private L1/L2 per worker, shared L3, DRAM contention.

This is the substrate behind the paper's Fig. 2 (d,e,f): per-task work time
depends on where the task's footprint is found, misses are counted per level
(the PAPI L1DCM/L2DCM/L3CM counters), and DRAM bandwidth is shared among the
workers concurrently touching memory — producing work-time inflation at high
parallelism and deflation when idleness reduces pressure (§4.1's observation
above TPL 2,176).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.task import FootprintAccess, FootprintChunk
from repro.memory.cache import LRUCache
from repro.memory.machine import MachineSpec


@dataclass(slots=True)
class MemCounters:
    """Hardware-counter-style accumulators (PAPI substitute).

    Misses are counted in cache lines, like the billions-of-misses axes of
    Fig. 2 (e); stalls in cycles like Fig. 2 (f).
    """

    l1_misses: int = 0
    l2_misses: int = 0
    l3_misses: int = 0
    l1_stall_cycles: float = 0.0
    l2_stall_cycles: float = 0.0
    l3_stall_cycles: float = 0.0
    bytes_l1: int = 0
    bytes_l2: int = 0
    bytes_l3: int = 0
    bytes_dram: int = 0

    @property
    def total_stall_cycles(self) -> float:
        return self.l1_stall_cycles + self.l2_stall_cycles + self.l3_stall_cycles

    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`."""
        from repro.util.serde import flat_to_dict

        return flat_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MemCounters":
        from repro.util.serde import flat_from_dict

        return flat_from_dict(cls, data)

    def merge(self, other: "MemCounters") -> None:
        self.l1_misses += other.l1_misses
        self.l2_misses += other.l2_misses
        self.l3_misses += other.l3_misses
        self.l1_stall_cycles += other.l1_stall_cycles
        self.l2_stall_cycles += other.l2_stall_cycles
        self.l3_stall_cycles += other.l3_stall_cycles
        self.bytes_l1 += other.bytes_l1
        self.bytes_l2 += other.bytes_l2
        self.bytes_l3 += other.bytes_l3
        self.bytes_dram += other.bytes_dram


class MemoryHierarchy:
    """The cache/DRAM model of one shared-memory domain.

    One instance per simulated MPI process.  Not thread-safe — the DES is
    single-threaded by construction.
    """

    def __init__(self, machine: MachineSpec):
        self.machine = machine
        self._l1 = [LRUCache(machine.l1_bytes) for _ in range(machine.n_cores)]
        self._l2 = [LRUCache(machine.l2_bytes) for _ in range(machine.n_cores)]
        self._l3 = LRUCache(machine.l3_bytes)
        self.counters = MemCounters()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Cold caches and zeroed counters."""
        for c in self._l1:
            c.clear()
        for c in self._l2:
            c.clear()
        self._l3.clear()
        self.counters = MemCounters()

    # ------------------------------------------------------------------
    def _lines(self, nbytes: int) -> int:
        lb = self.machine.line_bytes
        return (nbytes + lb - 1) // lb

    def access(
        self,
        worker: int,
        footprint: Sequence[FootprintChunk | FootprintAccess],
        dram_sharers: int = 1,
    ) -> float:
        """Charge one task's footprint against the hierarchy.

        Parameters
        ----------
        worker:
            Index of the executing core (selects the private L1/L2).
        footprint:
            The task's footprint entries: ``(chunk id, bytes)`` or
            ``(chunk id, bytes, mode)`` tuples (only the first two
            fields are read, so a spec's footprint is passed as is).
        dram_sharers:
            Number of cores concurrently generating DRAM traffic; the
            aggregate DRAM bandwidth is divided among them.

        Returns the footprint's memory time in seconds; misses, stalls and
        bytes per level accumulate on :attr:`counters`.
        """
        if worker < 0 or worker >= self.machine.n_cores:
            raise IndexError(f"worker {worker} out of range")
        # This is the task-execution hot path.  It open-codes the LRU
        # touch/install logic of :class:`LRUCache` directly against the
        # cache internals: every insert below happens right after a miss at
        # that level, so the chunk is provably absent and the
        # existing-entry check of :meth:`LRUCache.insert` can be skipped.
        # Byte counters and ``_used`` occupancy accumulate in locals and
        # are written back once at the end.
        m = self.machine
        l1 = self._l1[worker]
        l2 = self._l2[worker]
        l3 = self._l3
        e1, cap1, used1 = l1._entries, l1.capacity, l1._used
        e2, cap2, used2 = l2._entries, l2.capacity, l2._used
        e3, cap3, used3 = l3._entries, l3.capacity, l3._used
        e1_pop, e2_pop, e3_pop = e1.popitem, e2.popitem, e3.popitem
        lb = m.line_bytes
        l1_bw, l2_bw, l3_bw = m.l1_bw, m.l2_bw, m.l3_bw
        l1_lat, l2_lat, l3_lat = m.l1_lat_cycles, m.l2_lat_cycles, m.l3_lat_cycles
        eff_dram_bw = m.dram_bw / dram_sharers if dram_sharers > 1 else m.dram_bw
        miss1 = miss2 = miss3 = 0
        stall1 = stall2 = stall3 = 0.0
        b1 = b2 = b3 = 0
        time = 0.0
        b_dram = 0
        for entry in footprint:
            chunk = entry[0]
            nbytes = entry[1]
            if nbytes <= 0:
                continue
            if chunk in e1:
                e1.move_to_end(chunk)
                b1 += nbytes
                time += nbytes / l1_bw
                continue
            lines = (nbytes + lb - 1) // lb
            miss1 += lines
            stall1 += lines * l1_lat
            if chunk in e2:
                e2.move_to_end(chunk)
                b2 += nbytes
                time += nbytes / l2_bw
                if nbytes <= cap1:
                    limit = cap1 - nbytes
                    while used1 > limit and e1:
                        used1 -= e1_pop(False)[1]
                    e1[chunk] = nbytes
                    used1 += nbytes
                continue
            miss2 += lines
            stall2 += lines * l2_lat
            if chunk in e3:
                e3.move_to_end(chunk)
                b3 += nbytes
                time += nbytes / l3_bw
            else:
                miss3 += lines
                stall3 += lines * l3_lat
                b_dram += nbytes
                time += nbytes / eff_dram_bw
                if nbytes <= cap3:
                    limit = cap3 - nbytes
                    while used3 > limit and e3:
                        used3 -= e3_pop(False)[1]
                    e3[chunk] = nbytes
                    used3 += nbytes
            if nbytes <= cap2:
                limit = cap2 - nbytes
                while used2 > limit and e2:
                    used2 -= e2_pop(False)[1]
                e2[chunk] = nbytes
                used2 += nbytes
            if nbytes <= cap1:
                limit = cap1 - nbytes
                while used1 > limit and e1:
                    used1 -= e1_pop(False)[1]
                e1[chunk] = nbytes
                used1 += nbytes
        l1._used = used1
        l2._used = used2
        l3._used = used3
        ctr = self.counters
        ctr.l1_misses += miss1
        ctr.l2_misses += miss2
        ctr.l3_misses += miss3
        ctr.l1_stall_cycles += stall1
        ctr.l2_stall_cycles += stall2
        ctr.l3_stall_cycles += stall3
        ctr.bytes_l1 += b1
        ctr.bytes_l2 += b2
        ctr.bytes_l3 += b3
        ctr.bytes_dram += b_dram
        return time

    # ------------------------------------------------------------------
    def stream_time(self, nbytes: int, threads: int) -> float:
        """Time for ``threads`` cores to jointly stream ``nbytes`` from DRAM.

        Used by the parallel-for (BSP) simulator: mesh-wide loops touch the
        whole workset, which exceeds every cache level, so each loop streams
        its footprint at the shared DRAM bandwidth (§2.1).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        threads = max(1, min(threads, self.machine.n_cores))
        lines = self._lines(nbytes)
        self.counters.l1_misses += lines
        self.counters.l2_misses += lines
        self.counters.l3_misses += lines
        self.counters.l3_stall_cycles += lines * self.machine.l3_lat_cycles
        self.counters.bytes_dram += nbytes
        return nbytes / self.machine.dram_bw

    def stream(self, footprint: Sequence[FootprintChunk], threads: int) -> float:
        """Chunk-aware streaming for fork-join loops.

        Each chunk (typically one whole field group) goes through the
        shared L3 LRU: a loop sequence whose total workset fits the L3
        becomes cache-resident (strong-scaled tiny meshes), while a large
        workset cycles and pays DRAM bandwidth on every loop — the
        no-temporal-reuse property of §2.1.
        """
        threads = max(1, min(threads, self.machine.n_cores))
        m = self.machine
        ctr = self.counters
        l3 = self._l3
        time = 0.0
        for chunk, nbytes, *_ in footprint:
            if nbytes <= 0:
                continue
            lines = self._lines(nbytes)
            ctr.l1_misses += lines
            ctr.l2_misses += lines
            if l3.touch(chunk):
                ctr.bytes_l3 += nbytes
                time += nbytes / (m.l3_bw * threads)
            else:
                ctr.l3_misses += lines
                ctr.l3_stall_cycles += lines * m.l3_lat_cycles
                ctr.bytes_dram += nbytes
                time += nbytes / m.dram_bw
                l3.insert(chunk, nbytes)
        return time
