"""Dependence linter: discovery-cost anti-patterns in ``depend`` clauses.

Rules (see :data:`repro.verify.REGISTRY`):

``V-DUP-DEP``
    A clause list names the same ``(addr, mode)`` pair twice.  Never adds a
    constraint; always adds a ``c_dep`` hash, and an edge when opt (b) is
    off.  (:meth:`~repro.core.program.ProgramBuilder.task` now rejects
    these at submission; the rule catches hand-built specs.)

``V-ADDR-MERGE``
    Two or more addresses are accessed by exactly the same tasks with the
    same modes — the Fig. 3 pattern (x, y, z as separate addresses) that
    the paper's user-side optimization (a) merges into one address,
    saving ``(k-1)`` hashes per task and the duplicate edges they imply.

``V-IOSET-FANIN``
    A group of m >= 2 ``inoutset`` writers is followed by n >= 2 readers
    while optimization (c) is disabled: the readers cost m*n edges where a
    redirect node would cost m+n (Fig. 4).

``V-WAW-DEAD``
    An ``out`` write overwrites a previous write with no intervening
    reader: the first write's value is unobservable through the dependence
    system — either dead work or a missing reader dependence.

All rules walk the *template* structure (address access sequences over the
whole program, findings deduplicated across identical iterations), so their
cost is linear in the program, independent of the DES.
"""

from __future__ import annotations

from collections import Counter

from repro.core.optimizations import OptimizationSet
from repro.core.program import Program
from repro.core.task import DepMode
from repro.verify.findings import Finding


# ----------------------------------------------------------------------
def lint_duplicate_deps(program: Program) -> list[Finding]:
    """``V-DUP-DEP``: duplicate (addr, mode) pairs within one clause list."""
    findings: list[Finding] = []
    seen_names: set[str] = set()
    for it_index, spec in program.specs():
        if spec.barrier or spec.name in seen_names:
            continue
        seen_names.add(spec.name)
        dups = [d for d, k in Counter(spec.depends).items() if k > 1]
        for addr, mode in dups:
            findings.append(
                Finding(
                    rule="V-DUP-DEP",
                    message=(
                        f"task {spec.name!r} names (addr={addr}, "
                        f"mode={mode.name}) more than once in its depend "
                        "clause list"
                    ),
                    tasks=(spec.name,),
                    iteration=it_index,
                    hint="drop the duplicate item — it only inflates discovery cost",
                    data={"addr": addr, "mode": mode.name},
                )
            )
    return findings


# ----------------------------------------------------------------------
def lint_redundant_addresses(program: Program) -> list[Finding]:
    """``V-ADDR-MERGE``: address groups with identical access signatures."""
    # addr -> ordered occurrence signature ((task position, mode), ...)
    signatures: dict[int, list[tuple[int, int]]] = {}
    names: list[str] = []
    for _it, spec in program.specs():
        if spec.barrier:
            continue
        pos = len(names)
        names.append(spec.name)
        for addr, mode in spec.depends:
            signatures.setdefault(addr, []).append((pos, int(mode)))

    groups: dict[tuple, list[int]] = {}
    for addr, sig in signatures.items():
        groups.setdefault(tuple(sig), []).append(addr)

    findings: list[Finding] = []
    for sig, addrs in groups.items():
        if len(addrs) < 2:
            continue
        k = len(addrs)
        n_items = len(sig)
        involved: list[int] = []
        seen: set[int] = set()
        for pos, _m in sig:
            if pos not in seen:
                seen.add(pos)
                involved.append(pos)
        findings.append(
            Finding(
                rule="V-ADDR-MERGE",
                message=(
                    f"{k} depend addresses {sorted(addrs)[:6]} are always "
                    f"accessed together with identical modes by "
                    f"{len(seen)} tasks — they encode one logical location"
                ),
                tasks=tuple(names[p] for p in involved[:4]),
                hint=(
                    "merge them into a single address (user-side "
                    f"optimization (a)): saves {(k - 1) * n_items} depend "
                    "items over the program"
                ),
                data={
                    "addrs": sorted(addrs),
                    "deps_saved": (k - 1) * n_items,
                    "tasks_involved": len(seen),
                },
            )
        )
    return findings


# ----------------------------------------------------------------------
def _address_sequences(
    program: Program,
) -> dict[int, list[tuple[str, int, DepMode]]]:
    """Per-address access sequence: (task name, iteration, mode)."""
    seqs: dict[int, list[tuple[str, int, DepMode]]] = {}
    for it_index, spec in program.specs():
        if spec.barrier:
            continue
        for addr, mode in spec.depends:
            seqs.setdefault(addr, []).append((spec.name, it_index, mode))
    return seqs


def lint_inoutset_fanin(
    program: Program, opts: OptimizationSet
) -> list[Finding]:
    """``V-IOSET-FANIN``: m*n fan-ins that opt (c) would collapse to m+n."""
    findings: list[Finding] = []
    reported: set[tuple[int, str]] = set()
    for addr, seq in _address_sequences(program).items():
        i = 0
        while i < len(seq):
            if seq[i][2] != DepMode.INOUTSET:
                i += 1
                continue
            j = i
            while j < len(seq) and seq[j][2] == DepMode.INOUTSET:
                j += 1
            m = j - i
            k = j
            while k < len(seq) and seq[k][2] == DepMode.IN:
                k += 1
            n = k - j
            key = (addr, seq[i][0])
            if m >= 2 and n >= 2 and not opts.c and key not in reported:
                reported.add(key)
                findings.append(
                    Finding(
                        rule="V-IOSET-FANIN",
                        message=(
                            f"address {addr}: {m} inoutset writers (first: "
                            f"{seq[i][0]!r}) feed {n} readers (first: "
                            f"{seq[j][0]!r}) — {m * n} edges without "
                            f"optimization (c), {m + n} with it"
                        ),
                        tasks=(seq[i][0], seq[j][0]),
                        iteration=seq[i][1],
                        hint=(
                            "enable runtime optimization (c) — the redirect "
                            f"node saves {m * n - (m + n)} edges per fan-in"
                        ),
                        data={
                            "addr": addr,
                            "writers": m,
                            "readers": n,
                            "edges_naive": m * n,
                            "edges_redirect": m + n,
                        },
                    )
                )
            i = j
    return findings


def _family(name: str) -> str:
    """Task-name family: the name with any ``[block]`` suffix stripped."""
    return name.split("[", 1)[0]


def lint_waw_no_reader(program: Program) -> list[Finding]:
    """``V-WAW-DEAD``: an ``out`` write overwrites an unread write.

    One finding per (writer family, overwriter family) pair — a blocked
    loop produces the same dead write once per block, which is one defect,
    not one per address.
    """
    # (writer family, overwriter family) -> (example pair, addresses hit)
    pairs: dict[tuple[str, str], tuple[tuple[str, str, int], list[int]]] = {}
    for addr, seq in _address_sequences(program).items():
        prev_write: tuple[str, int, DepMode] | None = None
        readers_since = 0
        for name, it_index, mode in seq:
            if mode == DepMode.IN:
                readers_since += 1
                continue
            if (
                mode == DepMode.OUT
                and prev_write is not None
                and readers_since == 0
            ):
                key = (_family(prev_write[0]), _family(name))
                if key not in pairs:
                    pairs[key] = ((prev_write[0], name, prev_write[1]), [])
                pairs[key][1].append(addr)
            prev_write = (name, it_index, mode)
            readers_since = 0

    findings: list[Finding] = []
    for (prev_fam, fam), ((prev_name, name, it_index), addrs) in pairs.items():
        n = len(addrs)
        where = (
            f"on {n} addresses (e.g. {addrs[0]})" if n > 1 else f"on address {addrs[0]}"
        )
        findings.append(
            Finding(
                rule="V-WAW-DEAD",
                message=(
                    f"{fam!r} overwrites {prev_fam!r}'s value {where} with "
                    "no reader in between — the first write is dead through "
                    "the dependence system"
                ),
                tasks=(prev_name, name),
                iteration=it_index,
                hint=(
                    "remove the dead write, or add the missing reader "
                    "dependence"
                ),
                data={"addrs": addrs[:8], "n_addrs": n},
            )
        )
    return findings
