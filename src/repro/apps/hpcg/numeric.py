"""Numerically real blocked CG — validates the dependency scheme.

Builds a 27-point Laplacian with scipy.sparse and runs CG where every
block operation is a *task body*; executing the TDG in any schedule the
runtime produces must match the sequential blocked reference bit-for-bit
(partial dot sums are reduced in fixed block order, so floating-point
non-associativity cannot leak in).  This is the strongest test of the
dependence resolver: a missing or wrong edge reorders a read/write pair
and changes the result.

scipy is imported inside :func:`laplacian_27pt`, on first use, so that
``import repro`` needs numpy alone; annotations name ``scipy.sparse``
for type checkers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.program import Program, TaskSpec
from repro.core.task import DepMode

if TYPE_CHECKING:
    import scipy.sparse as sp


def laplacian_27pt(nx: int, ny: int, nz: int) -> sp.csr_matrix:
    """The HPCG operator: 27-point stencil, 26 off-diagonal -1s, 26 on the
    diagonal plus a small shift to keep it positive definite."""
    import scipy.sparse as sp

    n = nx * ny * nz
    idx = np.arange(n).reshape(nz, ny, nx)
    rows, cols = [], []
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                src = idx[
                    max(0, -dz) : nz - max(0, dz),
                    max(0, -dy) : ny - max(0, dy),
                    max(0, -dx) : nx - max(0, dx),
                ]
                dst = idx[
                    max(0, dz) : nz - max(0, -dz),
                    max(0, dy) : ny - max(0, -dy),
                    max(0, dx) : nx - max(0, -dx),
                ]
                rows.append(src.ravel())
                cols.append(dst.ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = -np.ones(len(rows))
    a = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    diag = sp.diags(26.5 * np.ones(n))
    return (a + diag).tocsr()


@dataclass
class BlockedCGState:
    """Mutable CG state shared by all task bodies."""

    a: sp.csr_matrix
    x: np.ndarray
    r: np.ndarray
    p: np.ndarray
    ap: np.ndarray
    partials_pap: np.ndarray
    partials_rr: np.ndarray
    alpha: float = 0.0
    beta: float = 0.0
    rr_old: float = 0.0


class NumericCG:
    """Blocked CG whose block operations double as task bodies."""

    def __init__(self, a: sp.csr_matrix, b: np.ndarray, n_blocks: int):
        n = a.shape[0]
        if n_blocks < 1 or n_blocks > n:
            raise ValueError(f"n_blocks must be in [1, {n}], got {n_blocks}")
        self.n = n
        self.n_blocks = n_blocks
        self.bounds = np.linspace(0, n, n_blocks + 1).astype(int)
        self.b = b.astype(float)
        self.st = BlockedCGState(
            a=a,
            x=np.zeros(n),
            r=b.copy().astype(float),
            p=b.copy().astype(float),
            ap=np.zeros(n),
            partials_pap=np.zeros(n_blocks),
            partials_rr=np.zeros(n_blocks),
        )
        self.st.rr_old = float(self.b @ self.b)

    # ------------------------------------------------------------------
    def _blk(self, i: int) -> slice:
        return slice(int(self.bounds[i]), int(self.bounds[i + 1]))

    # block bodies ------------------------------------------------------
    def spmv(self, i: int) -> None:
        s = self._blk(i)
        self.st.ap[s] = self.st.a[s] @ self.st.p

    def dot_pap(self, i: int) -> None:
        s = self._blk(i)
        self.st.partials_pap[i] = self.st.p[s] @ self.st.ap[s]

    def reduce_alpha(self) -> None:
        pap = float(np.sum(self.st.partials_pap))
        self.st.alpha = self.st.rr_old / pap

    def axpy_x(self, i: int) -> None:
        s = self._blk(i)
        self.st.x[s] += self.st.alpha * self.st.p[s]

    def axpy_r(self, i: int) -> None:
        s = self._blk(i)
        self.st.r[s] -= self.st.alpha * self.st.ap[s]

    def dot_rr(self, i: int) -> None:
        s = self._blk(i)
        self.st.partials_rr[i] = self.st.r[s] @ self.st.r[s]

    def reduce_beta(self) -> None:
        rr_new = float(np.sum(self.st.partials_rr))
        self.st.beta = rr_new / self.st.rr_old
        self.st.rr_old = rr_new

    def update_p(self, i: int) -> None:
        s = self._blk(i)
        self.st.p[s] = self.st.r[s] + self.st.beta * self.st.p[s]

    # ------------------------------------------------------------------
    def run_reference(self, iterations: int) -> np.ndarray:
        """Sequential blocked CG — the ground truth for task execution."""
        for _ in range(iterations):
            for i in range(self.n_blocks):
                self.spmv(i)
            for i in range(self.n_blocks):
                self.dot_pap(i)
            self.reduce_alpha()
            for i in range(self.n_blocks):
                self.axpy_x(i)
            for i in range(self.n_blocks):
                self.axpy_r(i)
            for i in range(self.n_blocks):
                self.dot_rr(i)
            self.reduce_beta()
            for i in range(self.n_blocks):
                self.update_p(i)
        return self.st.x

    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.b - self.st.a @ self.st.x))

    # ------------------------------------------------------------------
    def build_program(self, iterations: int, *, name: str = "cg-numeric") -> Program:
        """Task program whose bodies mutate this CG state.

        SpMV reads all of p (dense column dependence, like the timing
        proxy), so the TDG orders it after every ``UpdateP``.
        """
        nb = self.n_blocks
        specs: list[TaskSpec] = []
        aid = {}

        def addr(key) -> int:
            v = aid.get(key)
            if v is None:
                v = len(aid)
                aid[key] = v
            return v

        def v(namev, i) -> int:
            return addr((namev, i))

        all_p = [(v("p", j), DepMode.IN) for j in range(nb)]
        for i in range(nb):
            specs.append(
                TaskSpec(
                    name=f"SpMV[{i}]",
                    depends=tuple(all_p) + ((v("ap", i), DepMode.OUT),),
                    body=(lambda i=i: self.spmv(i)),
                )
            )
        for i in range(nb):
            specs.append(
                TaskSpec(
                    name=f"DotPAp[{i}]",
                    depends=(
                        (v("p", i), DepMode.IN),
                        (v("ap", i), DepMode.IN),
                        (v("pap", i), DepMode.OUT),
                    ),
                    body=(lambda i=i: self.dot_pap(i)),
                )
            )
        specs.append(
            TaskSpec(
                name="ReduceAlpha",
                depends=tuple((v("pap", i), DepMode.IN) for i in range(nb))
                + ((addr("alpha"), DepMode.OUT),),
                body=self.reduce_alpha,
            )
        )
        for i in range(nb):
            specs.append(
                TaskSpec(
                    name=f"AxpyX[{i}]",
                    depends=(
                        (addr("alpha"), DepMode.IN),
                        (v("p", i), DepMode.IN),
                        (v("x", i), DepMode.INOUT),
                    ),
                    body=(lambda i=i: self.axpy_x(i)),
                )
            )
        for i in range(nb):
            specs.append(
                TaskSpec(
                    name=f"AxpyR[{i}]",
                    depends=(
                        (addr("alpha"), DepMode.IN),
                        (v("ap", i), DepMode.IN),
                        (v("r", i), DepMode.INOUT),
                    ),
                    body=(lambda i=i: self.axpy_r(i)),
                )
            )
        for i in range(nb):
            specs.append(
                TaskSpec(
                    name=f"DotRR[{i}]",
                    depends=((v("r", i), DepMode.IN), (v("rr", i), DepMode.OUT)),
                    body=(lambda i=i: self.dot_rr(i)),
                )
            )
        specs.append(
            TaskSpec(
                name="ReduceBeta",
                depends=tuple((v("rr", i), DepMode.IN) for i in range(nb))
                + ((addr("beta"), DepMode.OUT),),
                body=self.reduce_beta,
            )
        )
        for i in range(nb):
            specs.append(
                TaskSpec(
                    name=f"UpdateP[{i}]",
                    depends=(
                        (addr("beta"), DepMode.IN),
                        (v("r", i), DepMode.IN),
                        (v("p", i), DepMode.INOUT),
                    ),
                    body=(lambda i=i: self.update_p(i)),
                )
            )
        return Program.from_template(
            specs, iterations, persistent_candidate=True, name=name
        )
