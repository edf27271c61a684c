"""Typed instrumentation hook points for the simulation kernel.

The runtimes *emit*; observers *subscribe*.  Each hook is a plain attribute
holding either ``None`` (no subscriber — the common case) or a tuple of
callbacks, so the emit site in a hot loop is::

    cbs = bus.task_end
    if cbs:
        for cb in cbs:
            cb(table, tid, worker, t_start, t_end)

One attribute load and a falsy check when nothing is attached — tracing
costs nothing unless someone is listening.  Subscribers never influence the
simulation: they receive the task table and a ``tid``, which they must not
write to, and the event queue is not exposed to them, which is what makes
the bus behavior-neutral (the determinism suite locks this in).

Hook signatures (``table`` is the emitting runtime's
:class:`~repro.sim.table.TaskTable`, times are simulated seconds):

================  ======================================================
``task_create``   ``(table, tid, res, cost, time)`` — discovery resolved
                  one task's ``depend`` clauses; ``res`` is the
                  :class:`~repro.core.dependences.ResolutionResult`
                  (addresses, edges, dedup/prune/redirect counts) and
                  ``cost`` the producer seconds charged for the creation
``task_replay``   ``(table, tid, iteration, cost, time)`` — persistent
                  replay (opt p) re-stamped one template task;  ``cost``
                  covers the re-arm plus the firstprivate copy
``task_ready``    ``(table, tid, time)`` — predecessors satisfied
``task_start``    ``(table, tid, worker, time)`` — body begins
``task_end``      ``(table, tid, worker, t_start, t_end)`` — body done
``msg_post``      ``(record)`` — an MPI request was posted
                  (:class:`~repro.obs.recorder.CommRecord`, completion
                  time still NaN)
``msg_complete``  ``(record)`` — the same record, completion time filled
``barrier``       ``(kind, time)`` — ``"taskwait"``, ``"iteration"`` or
                  ``"loop"`` synchronization point reached
``register``      ``(table, rank)`` — a runtime bound itself to this bus
                  (``table`` is None for non-task engines); lets a shared
                  multi-rank observer attribute later events to ranks
================  ======================================================
"""

from __future__ import annotations

from typing import Callable

#: Hook point names, in emit-frequency order.
HOOKS = (
    "task_ready",
    "task_start",
    "task_end",
    "task_create",
    "task_replay",
    "msg_post",
    "msg_complete",
    "barrier",
    "register",
)

#: One-line catalogue of every hook: ``name -> (signature, description)``.
#: ``repro info`` renders this so the subscriber surface is discoverable
#: without reading the module docstring.
HOOK_DOCS: dict[str, tuple[str, str]] = {
    "task_ready": ("(table, tid, time)", "task's predecessors all satisfied"),
    "task_start": ("(table, tid, worker, time)", "task body begins on a worker"),
    "task_end": ("(table, tid, worker, t_start, t_end)", "task body finished"),
    "task_create": (
        "(table, tid, res, cost, time)",
        "discovery resolved one task's depends (counters in res)",
    ),
    "task_replay": (
        "(table, tid, iteration, cost, time)",
        "persistent replay re-stamped one template task (opt p)",
    ),
    "msg_post": ("(record)", "MPI request posted (CommRecord, completion NaN)"),
    "msg_complete": ("(record)", "same CommRecord, completion time filled"),
    "barrier": ("(kind, time)", "taskwait/iteration/loop synchronization point"),
    "register": ("(table, rank)", "a runtime bound its task table to this bus"),
}


class HookBus:
    """A set of hook points observers attach to.

    Unknown hook names raise immediately — a typo'd subscription would
    otherwise silently observe nothing.

    Subclasses declare their hook catalogue in a ``HOOKS`` class attribute
    and usually set ``__slots__ = HOOKS``; the emit-site idiom (attribute
    load + falsy check) and the ``attach``/``detach`` subscriber protocol
    are shared.  :class:`InstrumentationBus` instruments the simulation
    kernel; :class:`repro.campaign.bus.CampaignBus` instruments experiment
    campaigns with the same idiom.
    """

    __slots__ = ()
    HOOKS: tuple[str, ...] = ()

    def __init__(self) -> None:
        for name in type(self).HOOKS:
            setattr(self, name, None)

    # ------------------------------------------------------------------
    def subscribe(self, hook: str, fn: Callable) -> Callable:
        """Attach ``fn`` to ``hook``; returns ``fn`` for unsubscribe."""
        current = self._get(hook)
        setattr(self, hook, (fn,) if current is None else current + (fn,))
        return fn

    def unsubscribe(self, hook: str, fn: Callable) -> None:
        """Detach ``fn`` from ``hook`` (missing subscriptions are ignored).

        Matches by equality, not identity: bound methods are re-created on
        every attribute access, so the ``on_<hook>`` method :meth:`detach`
        passes is never the same *object* that :meth:`attach` stored — but
        it compares equal to it.
        """
        current = self._get(hook)
        if not current:
            return
        remaining = tuple(cb for cb in current if cb != fn)
        setattr(self, hook, remaining or None)

    def attach(self, subscriber: object) -> object:
        """Subscribe every ``on_<hook>`` method ``subscriber`` defines.

        The conventional way to write an observer: a class with any subset
        of ``on_<hook>`` methods for the hooks in ``HOOKS``.  Returns the
        subscriber, so ``bus.attach(Recorder())`` reads well.
        """
        hooks = type(self).HOOKS
        found = False
        for name in hooks:
            fn = getattr(subscriber, f"on_{name}", None)
            if fn is not None:
                self.subscribe(name, fn)
                found = True
        if not found:
            raise TypeError(
                f"{type(subscriber).__name__} defines no on_<hook> method; "
                f"hooks are {', '.join(hooks)}"
            )
        return subscriber

    def detach(self, subscriber: object) -> None:
        """Remove every hook subscription made by :meth:`attach`."""
        for name in type(self).HOOKS:
            fn = getattr(subscriber, f"on_{name}", None)
            if fn is not None:
                self.unsubscribe(name, fn)

    # ------------------------------------------------------------------
    def _get(self, hook: str):
        hooks = type(self).HOOKS
        if hook not in hooks:
            raise ValueError(f"unknown hook {hook!r}; expected one of {hooks}")
        return getattr(self, hook)

    @property
    def quiet(self) -> bool:
        """True when no hook has any subscriber."""
        return all(getattr(self, name) is None for name in type(self).HOOKS)


class InstrumentationBus(HookBus):
    """The simulation kernel's hook points (see the module docstring)."""

    __slots__ = HOOKS
    HOOKS = HOOKS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = {
            name: len(getattr(self, name))
            for name in HOOKS
            if getattr(self, name) is not None
        }
        return f"InstrumentationBus({active or 'quiet'})"
