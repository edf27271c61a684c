"""Task vocabulary: ``depend`` modes, access modes and footprint entries.

The immutable *description* of a task as emitted by user code is a
:class:`repro.core.program.TaskSpec`; the producer thread turns specs into
rows of a struct-of-arrays :class:`~repro.sim.table.TaskTable` during TDG
discovery, paying the costs the paper studies.  A task *is* its row index
(``tid``): there is no per-task object.  This module holds the small value
types both sides share.
"""

from __future__ import annotations

import enum
from typing import Sequence, Tuple


class DepMode(enum.IntEnum):
    """OpenMP ``depend`` clause dependence types used by the paper.

    ``IN``/``OUT``/``INOUT`` follow OpenMP 4.0 semantics; ``INOUTSET``
    (OpenMP 5.1) marks a set of mutually-concurrent writers that other
    dependence types on the same address must all wait for (Fig. 4).
    """

    IN = 0
    OUT = 1
    INOUT = 2
    INOUTSET = 3


class AccessMode(enum.IntEnum):
    """How a task's body touches one footprint chunk.

    The cache model only needs bytes; the static race detector
    (:mod:`repro.verify`) additionally needs to know whether the traffic is
    a load, a store, or a read-modify-write.  Unannotated footprint entries
    default to :attr:`READWRITE` — the conservative choice for analysis.
    """

    READ = 0
    WRITE = 1
    READWRITE = 2

    @property
    def writes(self) -> bool:
        return self != AccessMode.READ


#: A single ``depend`` item: (address, mode).  Addresses are opaque ints —
#: the hash of whatever storage location the user named in the clause.
Dep = Tuple[int, DepMode]

#: One footprint entry for the cache model: (chunk id, bytes touched).
FootprintChunk = Tuple[int, int]

#: An access-annotated footprint entry: (chunk id, bytes, access mode).
FootprintAccess = Tuple[int, int, AccessMode]


def split_footprint(
    footprint: Sequence[FootprintChunk | FootprintAccess],
) -> tuple[Tuple[FootprintChunk, ...], Tuple[AccessMode, ...]]:
    """Normalize a footprint into (2-tuple chunks, aligned access modes).

    Accepts a mix of bare ``(chunk, bytes)`` entries and annotated
    ``(chunk, bytes, mode)`` entries; bare entries default to
    :attr:`AccessMode.READWRITE`, and plain int modes are converted (an
    invalid one raises ``ValueError``).  The 2-tuple view feeds the memory
    hierarchy unchanged; the mode tuple feeds the static analyses.
    """
    chunks: list[FootprintChunk] = []
    modes: list[AccessMode] = []
    for entry in footprint:
        if len(entry) == 2:
            cid, nbytes = entry  # type: ignore[misc]
            mode = AccessMode.READWRITE
        else:
            cid, nbytes, mode = entry  # type: ignore[misc]
            if type(mode) is not AccessMode:
                mode = AccessMode(mode)
        chunks.append((cid, nbytes))
        modes.append(mode)
    return tuple(chunks), tuple(modes)
