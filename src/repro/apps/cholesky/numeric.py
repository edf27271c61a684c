"""Numerically real tiled Cholesky — validates the tile dependency scheme.

Single-process right-looking tile Cholesky on a numpy matrix; the task
bodies perform the actual POTRF/TRSM/SYRK/GEMM kernels, so executing the
TDG in any runtime schedule must produce L with ``L @ L.T == A`` — a wrong
or missing edge corrupts the factorization.

The TRSM kernel imports ``scipy.linalg`` on its first call, so that
``import repro`` needs numpy alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.program import Program, TaskSpec
from repro.core.task import DepMode
from repro.util.rng import make_rng


def random_spd(n: int, seed: int = 0) -> np.ndarray:
    """A well-conditioned SPD matrix."""
    rng = make_rng(seed)
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


class NumericCholesky:
    """Tiled in-place Cholesky over a shared matrix copy."""

    def __init__(self, a: np.ndarray, b: int):
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        if n % b != 0:
            raise ValueError(f"tile size {b} must divide n={n}")
        self.n, self.b = n, b
        self.nt = n // b
        self.a = np.array(a, dtype=float)

    # ------------------------------------------------------------------
    def _t(self, i: int, j: int) -> np.ndarray:
        b = self.b
        return self.a[i * b : (i + 1) * b, j * b : (j + 1) * b]

    # tile kernels -------------------------------------------------------
    def potrf(self, k: int) -> None:
        tile = self._t(k, k)
        tile[:] = np.linalg.cholesky(tile)

    def trsm(self, i: int, k: int) -> None:
        import scipy.linalg as sla

        lkk = self._t(k, k)
        tile = self._t(i, k)
        tile[:] = sla.solve_triangular(lkk, tile.T, lower=True).T

    def syrk(self, i: int, k: int) -> None:
        aik = self._t(i, k)
        self._t(i, i)[:] -= aik @ aik.T

    def gemm(self, i: int, j: int, k: int) -> None:
        self._t(i, j)[:] -= self._t(i, k) @ self._t(j, k).T

    # ------------------------------------------------------------------
    def run_reference(self) -> np.ndarray:
        """Sequential tiled factorization (ground truth)."""
        for k in range(self.nt):
            self.potrf(k)
            for i in range(k + 1, self.nt):
                self.trsm(i, k)
            for i in range(k + 1, self.nt):
                for j in range(k + 1, i + 1):
                    if j == i:
                        self.syrk(i, k)
                    else:
                        self.gemm(i, j, k)
        return self.lower()

    def lower(self) -> np.ndarray:
        """The factor L (lower triangle of the tile matrix)."""
        return np.tril(self.a)

    def check(self, a_orig: np.ndarray, *, rtol: float = 1e-8) -> bool:
        l = self.lower()
        return bool(np.allclose(l @ l.T, a_orig, rtol=rtol, atol=1e-6))

    # ------------------------------------------------------------------
    def build_program(self, *, iterations: int = 1, name: str = "cholesky-numeric") -> Program:
        """Task program with real kernel bodies.

        With ``iterations > 1`` the factorization is *not* re-runnable on
        the same matrix (it is done in place), so bodies are only attached
        to the first iteration when used for numeric validation; timing
        studies with more iterations should use the timing-only program.
        """
        specs: list[TaskSpec] = []
        aid: dict = {}

        def addr(ij) -> int:
            v = aid.get(ij)
            if v is None:
                v = len(aid)
                aid[ij] = v
            return v

        for k in range(self.nt):
            specs.append(
                TaskSpec(
                    name=f"POTRF[{k}]",
                    depends=((addr((k, k)), DepMode.INOUT),),
                    body=(lambda k=k: self.potrf(k)),
                )
            )
            for i in range(k + 1, self.nt):
                specs.append(
                    TaskSpec(
                        name=f"TRSM[{i},{k}]",
                        depends=((addr((k, k)), DepMode.IN), (addr((i, k)), DepMode.INOUT)),
                        body=(lambda i=i, k=k: self.trsm(i, k)),
                    )
                )
            for i in range(k + 1, self.nt):
                for j in range(k + 1, i + 1):
                    if j == i:
                        specs.append(
                            TaskSpec(
                                name=f"SYRK[{i},{k}]",
                                depends=(
                                    (addr((i, k)), DepMode.IN),
                                    (addr((i, i)), DepMode.INOUT),
                                ),
                                body=(lambda i=i, k=k: self.syrk(i, k)),
                            )
                        )
                    else:
                        specs.append(
                            TaskSpec(
                                name=f"GEMM[{i},{j},{k}]",
                                depends=(
                                    (addr((i, k)), DepMode.IN),
                                    (addr((j, k)), DepMode.IN),
                                    (addr((i, j)), DepMode.INOUT),
                                ),
                                body=(lambda i=i, j=j, k=k: self.gemm(i, j, k)),
                            )
                        )
        return Program.from_template(
            specs, iterations, persistent_candidate=True, name=name
        )
