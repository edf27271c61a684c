"""Static data-race detection over footprint accesses (rule ``V-RACE``).

A race is two tasks touching the same footprint chunk, at least one of them
writing, with no happens-before path between them.  Ordering comes from two
sources, both encoded in the :class:`~repro.verify.static_graph.StaticTDG`:

- dependency edges (including transitive paths through redirect stubs);
- barrier segments — ``taskwait`` markers and the persistent region's
  implicit end-of-iteration barrier order whole submission prefixes.

Two unordered writers that both declared ``inoutset`` on a common address
are *not* racing: the clause is the user's assertion that the group's
read-modify-writes commute (Fig. 4's concurrent scatter-accumulators).

A reported race means a ``depend`` clause is missing or names the wrong
address — precisely the class of defect the paper's under-declared
dependences produce, invisible until results corrupt.

The scan is parameterized over the ordering relation and rule
attribution so the cluster pass (:mod:`repro.verify.mpi`) can rerun it
per rank with the *cross-rank* happens-before — communication edges
order tasks that look concurrent locally — and classify races touching
communication tasks as ``V-RACE-XRANK``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.task import DepMode
from repro.verify.findings import Finding
from repro.verify.static_graph import StaticTDG

#: Hard cap on reported races — beyond this the program needs structural
#: fixes, not a longer list.
MAX_RACE_FINDINGS = 50


def scan_conflicts(
    tdg: StaticTDG,
    *,
    ordered: Optional[Callable[[int, int], bool]] = None,
    xrank: bool = False,
    rank: int = -1,
) -> list[Finding]:
    """The race scan, parameterized for single-program and cluster use.

    ``ordered(a, b)`` is the happens-before-either-way oracle over tids
    (defaults to the TDG's own, segment + reachability); the cluster pass
    passes one that additionally follows communication edges.  With
    ``xrank`` a race touching a communication task (``comm_kind >= 0``)
    is reported as ``V-RACE-XRANK``; ``rank`` stamps every finding.
    """
    if ordered is None:
        ordered = tdg.ordered
    c = tdg.compiled
    names, iteration, comm_kind = c.name, c.iteration, c.comm_kind

    # chunk id -> list of (tid, whether the access writes); tid -> the
    # task's inoutset addresses.  Built once: the pair loop reads both
    # for every pair.
    accesses: dict[int, list[tuple[int, bool]]] = {}
    inoutset: dict[int, frozenset[int]] = {}
    for tid, spec in enumerate(tdg.specs):
        if spec is None:
            continue
        inoutset[tid] = frozenset(
            a for a, m in spec.depends if m == DepMode.INOUTSET
        )
        for cid, _nbytes, mode in spec.accesses():
            accesses.setdefault(cid, []).append((tid, mode.writes))

    findings: list[Finding] = []
    truncated = False
    for cid in sorted(accesses):
        accs = accesses[cid]
        if not any(w for _, w in accs):
            continue
        for i in range(len(accs)):
            a, wa = accs[i]
            for j in range(i + 1, len(accs)):
                b, wb = accs[j]
                if a == b:
                    continue
                if not (wa or wb):
                    continue
                if ordered(a, b):
                    continue
                if wa and wb and not inoutset[a].isdisjoint(inoutset[b]):
                    # Sanctioned concurrency: same inoutset group.
                    continue
                if len(findings) >= MAX_RACE_FINDINGS:
                    truncated = True
                    break
                writer, other = (a, b) if wa else (b, a)
                kind = "write/write" if (wa and wb) else "read/write"
                rule = (
                    "V-RACE-XRANK"
                    if xrank and (comm_kind[writer] >= 0 or comm_kind[other] >= 0)
                    else "V-RACE"
                )
                where = f" on rank {rank}" if rank >= 0 else ""
                findings.append(
                    Finding(
                        rule=rule,
                        message=(
                            f"{kind} race on footprint chunk {cid}{where}: "
                            f"{names[writer]!r} (iteration {iteration[writer]}) "
                            f"and {names[other]!r} (iteration {iteration[other]}) "
                            "are unordered"
                        ),
                        tasks=(names[writer], names[other]),
                        iteration=iteration[writer],
                        rank=rank,
                        hint=(
                            "declare a depend clause covering the shared "
                            "storage (or an inoutset group if the writes "
                            "commute), or separate the tasks with a taskwait"
                        ),
                        data={"chunk": cid, "kind": kind},
                    )
                )
            if truncated:
                break
        if truncated:
            break
    if truncated:
        findings.append(
            Finding(
                rule="V-RACE",
                message=(
                    f"race reporting truncated after {MAX_RACE_FINDINGS} "
                    "findings — the dependence structure needs a rework, "
                    "not a longer list"
                ),
                rank=rank,
            )
        )
    return findings


def find_races(tdg: StaticTDG) -> list[Finding]:
    """All unordered conflicting footprint access pairs, as findings."""
    return scan_conflicts(tdg)
