"""Multi-rank coupled simulation (distributed MPI+OpenMP substrate)."""

from repro.cluster.mapping import Neighbor, RankGrid
from repro.cluster.cluster import Cluster, ClusterResult

__all__ = [
    "Neighbor",
    "RankGrid",
    "Cluster",
    "ClusterResult",
]
