"""Cartesian rank grids and neighbor topology.

LULESH decomposes its mesh over a cubic grid of MPI processes; each process
exchanges frontier data with up to 26 neighbors: 6 *faces* (O(s²) bytes),
12 *edges* (O(s) bytes) and 8 *corners* (O(1) bytes) — §4.1.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Neighbor:
    """One neighbor of a rank in the 3D grid."""

    rank: int
    #: Offset (dx, dy, dz) in {-1, 0, 1}^3 \ {(0,0,0)}.
    offset: tuple[int, int, int]

    @property
    def kind(self) -> str:
        """``"face"``, ``"edge"`` or ``"corner"`` by offset cardinality."""
        n = sum(1 for d in self.offset if d != 0)
        return {1: "face", 2: "edge", 3: "corner"}[n]


class RankGrid:
    """A ``px x py x pz`` Cartesian process grid (no periodicity)."""

    def __init__(self, px: int, py: int, pz: int):
        if min(px, py, pz) < 1:
            raise ValueError(f"grid dims must be >= 1, got {(px, py, pz)}")
        self.px, self.py, self.pz = px, py, pz

    # ------------------------------------------------------------------
    @classmethod
    def cubic(cls, n_ranks: int) -> "RankGrid":
        """The cubic grid for a perfect-cube rank count (LULESH requires it)."""
        side = round(n_ranks ** (1.0 / 3.0))
        if side**3 != n_ranks:
            raise ValueError(f"{n_ranks} is not a perfect cube")
        return cls(side, side, side)

    @property
    def n_ranks(self) -> int:
        return self.px * self.py * self.pz

    # ------------------------------------------------------------------
    def coords(self, rank: int) -> tuple[int, int, int]:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        x = rank % self.px
        y = (rank // self.px) % self.py
        z = rank // (self.px * self.py)
        return (x, y, z)

    def rank_of(self, x: int, y: int, z: int) -> int:
        if not (0 <= x < self.px and 0 <= y < self.py and 0 <= z < self.pz):
            raise ValueError(f"coords {(x, y, z)} out of grid {self.px}x{self.py}x{self.pz}")
        return x + self.px * (y + self.py * z)

    # ------------------------------------------------------------------
    def neighbors(self, rank: int) -> list[Neighbor]:
        """All existing neighbors of ``rank`` (interior ranks have 26)."""
        x, y, z = self.coords(rank)
        out = []
        for dz in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        continue
                    nx, ny, nz = x + dx, y + dy, z + dz
                    if 0 <= nx < self.px and 0 <= ny < self.py and 0 <= nz < self.pz:
                        out.append(Neighbor(self.rank_of(nx, ny, nz), (dx, dy, dz)))
        return out

    def interior_rank(self) -> int:
        """A rank with the maximum neighbor count (the profiled rank 82 of
        Fig. 7 was interior: connected to 26 others)."""
        best, best_n = 0, -1
        for r in range(self.n_ranks):
            n = len(self.neighbors(r))
            if n > best_n:
                best, best_n = r, n
        return best

    def __repr__(self) -> str:  # pragma: no cover
        return f"RankGrid({self.px}x{self.py}x{self.pz})"
