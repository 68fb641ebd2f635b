"""Seeded invariant violations: deliberate protocol sabotage for
proving the monitor catches real bugs.

Each seed installs a minimal *double* — a wrapped method that makes the
fault-tolerance layer misbehave in exactly one way the paper forbids —
and nothing else. The seeded-violation tests (and the CLI's
``--seed-violation`` flag) then assert that the
:class:`~repro.observe.invariants.monitor.InvariantMonitor` flags the
corresponding invariant class and produces a valid flight record. A
monitor that stays silent on these runs is broken.

``seed_violation(cluster, kind)`` is called before ``cluster.run``. The
``fifo`` seed wraps ``network._deliver``; the ``DELIVER`` event the
monitor subscribes to is emitted inside the real method, so the monitor
sees the reordered stream. Seeds that hook the FT layer wrap
``cluster._install_ft`` because the per-host managers do not exist
until setup. This module sabotages behaviour — it is a test fixture,
not an observer, which is why it alone still replaces methods.

A wrapper is stored on the object whose method it replaces, so it calls
the class's function on a :func:`~repro.sim.engine.back_ref` proxy of
that object rather than closing over its bound method: a seeded cluster
is freed by reference counting like any other (DESIGN.md §5,
"Ownership").

Some seeds corrupt protocol state the run itself depends on (``vclock``
zeroes a vector time; ``recoverability`` deletes checkpoint copies;
``lock`` doubles a token), so
the run may legitimately die after the violation is detected — callers
catch exceptions and assert the violation was recorded first.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import back_ref

__all__ = ["SEEDS", "seed_violation"]


def after_install(cluster: Any, hook: Callable[[Any], None]) -> None:
    """Run ``hook(host)`` right after each FT install of ``cluster``
    (the per-host managers do not exist until setup)."""
    install_ft = type(cluster)._install_ft
    owner = back_ref(cluster)

    def install(host: Any) -> None:
        install_ft(owner, host)
        hook(host)

    cluster._install_ft = install


def _seed_cgc(cluster: Any) -> None:
    """Break Rule 3.1: CGC passes never collect anything, so stale
    copies at or below Tmin pile up in every page's retained window."""

    def hook(host: Any) -> None:
        host.ckpt_mgr.collect = lambda tmin, seqno_ceiling=None: 0

    after_install(cluster, hook)


def _seed_llt(cluster: Any) -> None:
    """Break Rules 2/3.2: LLT passes skip the diff-log and rel-log
    trims, so entries at or below the derived bounds are retained."""

    def hook(host: Any) -> None:
        host.ft.logs.diff.trim_page = lambda page, creator, min_keep: 0
        host.ft.logs.rel.trim = lambda peer, component, bound: 0

    after_install(cluster, hook)


def _seed_vclock(cluster: Any) -> None:
    """Break vt monotonicity: after p1 completes its first barrier its
    vector time is zeroed — the next send/delivery refresh sees the
    regression. The run usually cannot survive this corruption; callers
    must tolerate a crash after detection."""
    state = {"armed": True}

    def hook(host: Any) -> None:
        if host.pid != 1:
            return
        proto = back_ref(host.proto)
        complete_barrier = type(host.proto)._complete_barrier

        def complete(release: Any) -> None:
            complete_barrier(proto, release)
            if state["armed"]:
                state["armed"] = False
                proto.vt = type(proto.vt).zero(proto.n)

        proto._complete_barrier = complete

    after_install(cluster, hook)


def _seed_fifo(cluster: Any) -> None:
    """Break per-channel FIFO: on channel p1->p0, the first delivery
    that has another message already in flight behind it is held back
    and delivered after that follower — a one-time adjacent swap. Only
    holding when a follower is guaranteed to arrive keeps the sabotaged
    run from deadlocking on a request that never lands."""
    net = back_ref(cluster.network)
    orig_send = type(cluster.network).send
    orig_deliver = type(cluster.network)._deliver
    chan = (1, 0)
    state: dict = {"inflight": 0, "held": None, "done": False}

    def send(src: int, dst: int, payload: Any, size: int,
             category: str, ft_bytes: int = 0) -> None:
        if (src, dst) == chan:
            state["inflight"] += 1
        orig_send(net, src, dst, payload, size, category, ft_bytes)

    def deliver(src: int, dst: int, payload: Any, epoch: int,
                size: int = 0) -> None:
        if (src, dst) == chan:
            state["inflight"] -= 1
            if (state["held"] is None and not state["done"]
                    and state["inflight"] >= 1):
                state["held"] = (payload, epoch, size)
                return
            if state["held"] is not None:
                state["done"] = True
                orig_deliver(net, src, dst, payload, epoch, size)
                h_payload, h_epoch, h_size = state["held"]
                state["held"] = None
                orig_deliver(net, src, dst, h_payload, h_epoch, h_size)
                return
        orig_deliver(net, src, dst, payload, epoch, size)

    net.send = send
    net._deliver = deliver


def _seed_recoverability(cluster: Any) -> None:
    """Break the Rule 3 precondition: right after p0's first checkpoint
    commit, every retained copy of one of its pages is discarded — no
    recovery could obtain a starting copy for it. Corrupts state a later
    recovery would need; callers must tolerate a crash after
    detection."""
    state = {"armed": True}

    def hook(host: Any) -> None:
        if host.pid != 0:
            return
        mgr = back_ref(host.ckpt_mgr)
        commit_staged = type(host.ckpt_mgr).commit_staged

        def commit(*args: Any, **kwargs: Any) -> Any:
            out = commit_staged(mgr, *args, **kwargs)
            if state["armed"] and mgr.page_copies:
                state["armed"] = False
                # drop the key, not just the copies: an empty list would
                # trip run_cgc in the same engine event, before any
                # monitor scan could observe the breakage
                page = next(iter(mgr.page_copies))
                del mgr.page_copies[page]
            return out

        mgr.commit_staged = commit

    after_install(cluster, hook)


def _seed_lock(cluster: Any) -> None:
    """Break the one-token rule: the first grantor to send a
    ``LockGrant`` keeps ``has_token`` too, so the lock has two tokens
    from that send on. Mutual exclusion is gone with it; callers must
    tolerate a crash or a wrong result after detection."""
    state = {"armed": True}

    def hook(host: Any) -> None:
        proto = back_ref(host.proto)
        grant_to_fn = type(host.proto)._grant_to

        def grant_to(lock_id: int, acquirer: int, *args: Any) -> None:
            grant_to_fn(proto, lock_id, acquirer, *args)
            if state["armed"] and acquirer != proto.pid:
                state["armed"] = False
                proto.locks.token(lock_id).has_token = True

        proto._grant_to = grant_to

    after_install(cluster, hook)


SEEDS = {
    "cgc": _seed_cgc,
    "llt": _seed_llt,
    "vclock": _seed_vclock,
    "fifo": _seed_fifo,
    "recoverability": _seed_recoverability,
    "lock": _seed_lock,
}


def seed_violation(cluster: Any, kind: str) -> None:
    """Sabotage ``cluster`` so that invariant class ``kind`` is violated.

    Call before ``cluster.run``.
    """
    try:
        SEEDS[kind](cluster)
    except KeyError:
        raise ValueError(
            f"unknown seed {kind!r}; one of {sorted(SEEDS)}"
        ) from None
