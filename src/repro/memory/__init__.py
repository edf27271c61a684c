"""Memory hierarchy substrate: machine specs, LRU caches, DRAM contention."""

from repro.memory.machine import (
    MachineSpec,
    epyc_7763_numa,
    skylake_8168,
    tiny_test_machine,
)
from repro.memory.cache import LRUCache
from repro.memory.hierarchy import MemCounters, MemoryHierarchy

__all__ = [
    "MachineSpec",
    "epyc_7763_numa",
    "skylake_8168",
    "tiny_test_machine",
    "LRUCache",
    "MemCounters",
    "MemoryHierarchy",
]
