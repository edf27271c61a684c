"""Simulated MPI communicator: message matching and completion scheduling.

All ranks of a cluster simulation share one :class:`Communicator` wired to
the common event queue.  Semantics follow MPI's non-blocking operations as
the paper's applications use them:

- **eager** sends complete as soon as the payload is injected (the library
  buffers it); the receive completes when the payload has arrived *and* the
  receive is posted;
- **rendezvous** sends complete only after the matching receive is posted
  and the payload transferred — the protocol LULESH's O(s²) face messages
  use (§4.1);
- **Iallreduce** joins ranks in per-communicator call order: the k-th call
  on every rank belongs to the k-th collective; it completes for everyone
  once the last rank has joined and the reduction tree has run, which is
  how slow TDG discovery on *one* rank inflates *everyone's* collective
  time (§4.1 "every MPI process must wait for the slowest local OpenMP TDG
  discovery").
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.core.program import CommKind
from repro.mpi.network import NetworkSpec
from repro.mpi.request import Request
from repro.sim.events import EventQueue


class Communicator:
    """Matching fabric for ``n_ranks`` simulated processes."""

    def __init__(self, engine: EventQueue, network: NetworkSpec, n_ranks: int):
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.engine = engine
        self.network = network
        self.n_ranks = n_ranks
        self._next_rid = 0
        # Unmatched point-to-point queues keyed by (src, dst, tag).
        self._sends: dict[tuple[int, int, int], deque[Request]] = defaultdict(deque)
        self._recvs: dict[tuple[int, int, int], deque[Request]] = defaultdict(deque)
        # Collective slots: k-th Iallreduce call of each rank joins slot k.
        self._coll_slots: list[dict] = []
        self._coll_next: list[int] = [0] * n_ranks
        #: All requests ever posted, for post-mortem accounting.
        self.requests: list[Request] = []

    # ------------------------------------------------------------------
    def _new_request(
        self, kind: CommKind, rank: int, peer: int, tag: int, nbytes: int
    ) -> Request:
        req = Request(self._next_rid, kind, rank, peer, tag, nbytes, self.engine.now)
        self._next_rid += 1
        self.requests.append(req)
        return req

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")

    # ------------------------------------------------------------------
    def isend(self, rank: int, peer: int, tag: int, nbytes: int) -> Request:
        """Post a non-blocking send from ``rank`` to ``peer``."""
        self._check_rank(rank)
        self._check_rank(peer)
        req = self._new_request(CommKind.ISEND, rank, peer, tag, nbytes)
        if self.network.is_eager(nbytes):
            # Buffered: the send completes after injection no matter when
            # (or whether) the matching receive is posted.
            done = req.post_time + nbytes / self.network.bandwidth
            self.engine.push(max(done, self.engine.now), req.fire_completion, done)
        key = (rank, peer, tag)
        pending = self._recvs.get(key)
        if pending:
            self._match(req, pending.popleft())
        else:
            self._sends[key].append(req)
        return req

    def irecv(self, rank: int, peer: int, tag: int, nbytes: int) -> Request:
        """Post a non-blocking receive on ``rank`` from ``peer``."""
        self._check_rank(rank)
        self._check_rank(peer)
        req = self._new_request(CommKind.IRECV, rank, peer, tag, nbytes)
        key = (peer, rank, tag)
        pending = self._sends.get(key)
        if pending:
            self._match(pending.popleft(), req)
        else:
            self._recvs[key].append(req)
        return req

    def _match(self, send: Request, recv: Request) -> None:
        net = self.network
        now = self.engine.now
        nbytes = send.nbytes
        if net.is_eager(nbytes):
            # Send completion was already scheduled at post time (buffered);
            # only the receive side is resolved here.
            arrival = send.post_time + net.transfer_time(nbytes)
            recv_done = max(arrival, recv.post_time)
            self.engine.push(
                max(recv_done, now), recv.fire_completion, max(recv_done, now)
            )
            return
        # Rendezvous: transfer starts once both sides are posted and the
        # handshake round-trip has happened.
        start = max(send.post_time, recv.post_time) + net.latency
        done = max(start + net.latency + nbytes / net.bandwidth, now)
        self.engine.push(done, send.fire_completion, done)
        self.engine.push(done, recv.fire_completion, done)

    # ------------------------------------------------------------------
    def iallreduce(self, rank: int, nbytes: int) -> Request:
        """Join this rank's next Iallreduce; completes when all ranks join."""
        self._check_rank(rank)
        req = self._new_request(CommKind.IALLREDUCE, rank, -1, -1, nbytes)
        slot_idx = self._coll_next[rank]
        self._coll_next[rank] += 1
        while len(self._coll_slots) <= slot_idx:
            self._coll_slots.append({"joined": [], "done": False})
        slot = self._coll_slots[slot_idx]
        if slot["done"]:
            raise RuntimeError(
                f"rank {rank} joined already-completed collective slot {slot_idx}"
            )
        slot["joined"].append(req)
        if len(slot["joined"]) > self.n_ranks:
            raise RuntimeError(f"collective slot {slot_idx} over-subscribed")
        if len(slot["joined"]) == self.n_ranks:
            slot["done"] = True
            t_last = max(r.post_time for r in slot["joined"])
            done = t_last + self.network.allreduce_time(self.n_ranks, nbytes)
            done = max(done, self.engine.now)
            for r in slot["joined"]:
                self.engine.push(done, r.fire_completion, done)
        return req

    # ------------------------------------------------------------------
    def unmatched(self) -> dict[str, int]:
        """Counts of dangling operations — all zero in a correct program."""
        n_sends = sum(len(q) for q in self._sends.values())
        n_recvs = sum(len(q) for q in self._recvs.values())
        n_coll = sum(
            1 for s in self._coll_slots if not s["done"] and s["joined"]
        )
        return {"sends": n_sends, "recvs": n_recvs, "collectives": n_coll}

    def assert_quiescent(self) -> None:
        """Raise if any operation never matched (deadlock/leak detector)."""
        u = self.unmatched()
        if any(u.values()):
            raise RuntimeError(f"communicator not quiescent at end of run: {u}")
