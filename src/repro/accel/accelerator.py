"""Simulated accelerator offloading (the paper's §7 future work).

The conclusion conjectures that TDG discovery speed "could have impacts on
accelerators offloading, with similar effects onto SM memory and CPU/GPU
communications".  This extension makes that testable in the simulator:

- tasks marked ``device=True`` execute on a simulated accelerator with a
  fixed number of concurrent *streams*;
- kernel duration = launch overhead + max(flop time, device-memory time);
- the task's footprint chunks live in an LRU-modelled device memory: a
  chunk already resident skips its host-to-device transfer — back-to-back
  offloaded successors (enabled by fast discovery) reuse device-resident
  data exactly like the CPU cache hierarchy reuses L2;
- a host worker only pays the launch cost; completion releases TDG
  successors like a detached MPI request.

Slow TDG discovery therefore starves the streams and forces re-transfers —
the offload analogue of the paper's breadth-first cache degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.task import FootprintAccess, FootprintChunk
from repro.memory.cache import LRUCache
from repro.sim.events import EventQueue
from repro.util.units import MiB, us
from repro.util.validation import check_positive


@dataclass(frozen=True, slots=True)
class AcceleratorSpec:
    """A device in the spirit of a data-center GPU, scaled like the rest."""

    name: str = "accel"
    #: Concurrent kernel streams.
    n_streams: int = 4
    #: Device execution rate for one kernel, flop/s.
    flops_per_stream: float = 20.0e9
    #: Device-memory bandwidth per stream, bytes/s.
    mem_bw: float = 200.0e9
    #: Host-to-device / device-to-host transfer bandwidth (PCIe-ish).
    xfer_bw: float = 12.0e9
    #: Kernel launch latency paid on the device timeline.
    launch_overhead: float = 4.0 * us
    #: Device memory capacity for the residency model.
    device_mem_bytes: int = 256 * MiB

    def __post_init__(self) -> None:
        check_positive("n_streams", self.n_streams)
        check_positive("flops_per_stream", self.flops_per_stream)
        check_positive("mem_bw", self.mem_bw)
        check_positive("xfer_bw", self.xfer_bw)
        check_positive("device_mem_bytes", self.device_mem_bytes)
        if self.launch_overhead < 0:
            raise ValueError("launch_overhead must be >= 0")

    def scaled(self, factor: float) -> "AcceleratorSpec":
        """Scale the fixed costs like the CPU-side cost model."""
        from dataclasses import replace

        return replace(self, launch_overhead=self.launch_overhead * factor)

    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`."""
        from repro.util.serde import flat_to_dict

        return flat_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AcceleratorSpec":
        from repro.util.serde import flat_from_dict

        return flat_from_dict(cls, data)


@dataclass(slots=True)
class AccelStats:
    """Per-run accelerator counters."""

    kernels: int = 0
    busy_time: float = 0.0
    h2d_bytes: int = 0
    resident_hits: int = 0
    resident_bytes: int = 0


class Accelerator:
    """Stream-scheduled device shared by one process's runtime."""

    def __init__(self, spec: AcceleratorSpec, engine: EventQueue):
        self.spec = spec
        self.engine = engine
        self._stream_free = [0.0] * spec.n_streams
        self._memory = LRUCache(spec.device_mem_bytes)
        self.stats = AccelStats()

    # ------------------------------------------------------------------
    def kernel_duration(
        self, flops: float, footprint: Sequence[FootprintChunk | FootprintAccess]
    ) -> tuple[float, int]:
        """(execution time once started, bytes needing H2D transfer) of a
        kernel doing ``flops`` over ``footprint``'s ``(chunk, bytes)`` or
        ``(chunk, bytes, mode)`` entries."""
        flop_time = flops / self.spec.flops_per_stream
        mem_bytes = sum(entry[1] for entry in footprint)
        mem_time = mem_bytes / self.spec.mem_bw
        h2d = 0
        for entry in footprint:
            chunk = entry[0]
            nbytes = entry[1]
            if self._memory.touch(chunk):
                self.stats.resident_hits += 1
                self.stats.resident_bytes += nbytes
            else:
                h2d += nbytes
                self._memory.insert(chunk, nbytes)
        return (
            self.spec.launch_overhead
            + h2d / self.spec.xfer_bw
            + max(flop_time, mem_time)
        ), h2d

    def submit(
        self,
        flops: float,
        footprint: Sequence[FootprintChunk | FootprintAccess],
        now: float,
        on_complete: Callable[[float], None],
    ) -> float:
        """Queue one kernel on the earliest-free stream; returns finish time."""
        duration, h2d = self.kernel_duration(flops, footprint)
        stream = min(range(self.spec.n_streams), key=lambda i: self._stream_free[i])
        start = max(now, self._stream_free[stream])
        finish = start + duration
        self._stream_free[stream] = finish
        self.stats.kernels += 1
        self.stats.busy_time += duration
        self.stats.h2d_bytes += h2d
        self.engine.push(finish, on_complete, finish)
        return finish

    # ------------------------------------------------------------------
    def utilization(self, makespan: float) -> float:
        """Average stream busy fraction over the run."""
        if makespan <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / (self.spec.n_streams * makespan))
