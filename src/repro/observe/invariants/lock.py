"""``lock``: one token per lock, and a waiter's token on its way.

Each lock has exactly one token at every step (§3's queue locks): it
rests at one live host — ``has_token`` in its table, or implicitly at a
manager that never touched the lock (``dsm.locks.token_holders``, the
one resting-token count the sweep oracle and the deadlock diagnosis also
use) — or it is a ``LockGrant`` on its way. And while some host waits
for the lock, the token is held, or something that moves it is on its
way: a grant, a request, a forward, or a ``RecoveryDone`` (which makes
peers re-send requests and managers repair forwards). A token resting
idle at a host with a waiter and none of those in flight never moves
again: the run will deadlock. The accounting:

* **In flight** is messages sent minus messages delivered, per lock and
  kind, off ``SEND``/``DELIVER``. A global rollback voids every message
  in flight (``Network.flush_epoch``): the counts restart at the new
  epoch, and a voided delivery is not counted.
* **Waking.** A grant delivered into a waiting acquire is the resolved
  future's value until the acquirer's coroutine resumes, one engine
  event later (``SimProcess.inbox``); it is counted there. A grant a
  host forwards to itself is not: its token never left ``has_token``.
* **Down hosts.** A grant delivered to a down host queues there: it is
  delivered and rests nowhere until the host drains its queue at the
  live switch. While any host is down or recovering nothing is checked,
  because that host's token died with its memory.

When: the count at every grant delivery, before the handler, so the
delivered grant still counts as in flight, and for every lock once after
every live switch. That count waits for the next delivery: the recovered
host drains its queue right after ``RECOVERY_LIVE``, and
``_handle_grant``'s stale-report branch can turn a queued grant into the
token there. Waiters are looked at every :data:`WAITERS_EVERY`
deliveries and at the end. Every check starts a delivery, which starts
an engine event, so every token is then resting, waking or in flight; a
send can come in the middle of a transfer (a grantor's replication
traffic goes out between dropping the token and sending the grant).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.dsm.locks import token_holders
from repro.dsm.messages import (
    LockAcquireReq, LockForward, LockGrant, RecoveryDone,
)
from repro.sim.trace import DELIVER, RECOVERY_LIVE, SEND

__all__ = ["WAITERS_EVERY", "LockChecker"]

#: waiters are looked at every Nth delivery: a stall is permanent, so the
#: cadence only delays its report, and looking at every delivery costs
#: the sweep loop a third of the monitor's time
WAITERS_EVERY = 10

#: what the checker counts a message as: a grant, a request or forward
#: (either moves a waiter's turn along), or a RecoveryDone
_GRANT, _ASK, _DONE = range(3)
_KIND = {
    LockGrant: _GRANT, LockAcquireReq: _ASK, LockForward: _ASK,
    RecoveryDone: _DONE,
}


class LockChecker:
    name = "lock"

    def __init__(self, monitor: Any) -> None:
        self.hosts = monitor.cluster.hosts
        self._net = monitor.cluster.network
        self._violate = monitor.sink(self.name)
        self.checks = 0
        self._deliveries = 0
        self._epoch = self._net.epoch
        #: lock -> grants / requests and forwards sent minus delivered,
        #: in ``_epoch``
        self._grants: Dict[int, int] = {}
        self._asks: Dict[int, int] = {}
        #: RecoveryDone messages in flight, in ``_epoch``
        self._dones = 0
        #: the host whose live switch awaits its count, or -1
        self._switched = -1

    def subscriptions(self):
        return [
            (SEND, self._on_send), (DELIVER, self._on_deliver),
            (RECOVERY_LIVE, self._on_live),
        ]

    def adopt(self) -> None:
        """Count the messages in flight in the current epoch, as their
        sends did; the waiter cadence goes on from the deliveries so far."""
        net = self._net
        self._deliveries = net.traffic.total_msgs - net.inflight_msgs
        for src, dst, payload, epoch in net.in_flight():
            if epoch == net.epoch:
                self._on_send(src, dst, payload)

    def _sync_epoch(self) -> None:
        epoch = self._net.epoch
        if epoch != self._epoch:
            self._epoch = epoch
            self._grants, self._asks, self._dones = {}, {}, 0

    def _on_send(self, src: int, dst: int, payload: Any) -> None:
        kind = _KIND.get(type(payload))
        if kind is None:
            return
        self._sync_epoch()
        if kind == _DONE:
            self._dones += 1
        else:
            counts = self._grants if kind == _GRANT else self._asks
            counts[payload.lock_id] = counts.get(payload.lock_id, 0) + 1

    def _on_deliver(self, src: int, dst: int, payload: Any, epoch: int) -> None:
        if self._switched >= 0:
            self._after_switch()
        self._deliveries += 1
        if self._deliveries % WAITERS_EVERY == 0:
            self._check_waiters()
        kind = _KIND.get(type(payload))
        if kind is None:
            return
        self._sync_epoch()
        if epoch != self._epoch:
            return  # voided by a rollback
        if kind == _GRANT:
            lock_id = payload.lock_id
            self._check((lock_id,), dst, src)
            self._grants[lock_id] -= 1
        elif kind == _ASK:
            self._asks[payload.lock_id] -= 1
        else:
            self._dones -= 1

    def _on_live(self, pid: int) -> None:
        self._switched = pid

    def finish(self) -> None:
        """The pending live-switch count, and the waiters: a run that
        deadlocked ends with its network empty, so a stall shows here
        even when the delivery that caused it was the last one."""
        self._after_switch()
        self._check_waiters()

    def _after_switch(self) -> None:
        if self._switched >= 0:
            pid, self._switched = self._switched, -1
            self._check(self._all_locks(), pid, None)

    def _all_locks(self) -> Iterable[int]:
        self._sync_epoch()
        known = set(self._grants)
        for host in self.hosts:
            if host.proto is not None:
                known.update(host.proto.locks.known_locks())
        return sorted(known)

    def _tables(self) -> Optional[List[Any]]:
        """Every host's lock table, or None while a host is down or
        recovering."""
        hosts = self.hosts
        for h in hosts:
            if not h.live:
                return None
        return [h.proto.locks for h in hosts]

    def _census(self, tables: List[Any], lock_id: int):
        """(resting pids, waking pids, grants in flight) of one lock."""
        waking = [
            h.pid for h in self.hosts
            if type(h.simproc.inbox) is LockGrant
            and h.simproc.inbox.lock_id == lock_id
            and h.simproc.inbox.grantor != h.pid
        ]
        resting = token_holders(tables, lock_id)
        return resting, waking, self._grants.get(lock_id, 0)

    def _check(self, locks: Iterable[int], pid: int,
               grantor: Optional[int]) -> None:
        """Exactly one token per lock in ``locks``, unless a host is
        down or recovering: as ``grantor``'s grant reaches ``pid``, or
        (``grantor`` None) after ``pid``'s live switch."""
        tables = self._tables()
        if tables is None:
            return
        for lock_id in locks:
            resting, waking, sent = self._census(tables, lock_id)
            tokens = len(resting) + len(waking) + sent
            if tokens != 1:
                when = (f"after p{pid}'s live switch" if grantor is None
                        else f"as p{grantor}'s LockGrant reaches p{pid}")
                self._violate(
                    pid, f"lock {lock_id}: {tokens} tokens {when} (resting at "
                    f"{resting}, waking at {waking}, {sent} in flight)",
                )
        self.checks += 1

    def _check_waiters(self) -> None:
        """No waiter behind a token that rests idle with nothing on its
        way to move it."""
        waiters: Dict[int, list] = {}
        for h in self.hosts:
            if not h.live:
                return
            for lock_id in h.proto._lock_waiting:
                waiters.setdefault(lock_id, []).append(h.pid)
        self._sync_epoch()
        if not waiters or self._dones:
            return
        tables = [h.proto.locks for h in self.hosts]
        for lock_id, waiting in sorted(waiters.items()):
            if self._asks.get(lock_id, 0) or self._grants.get(lock_id, 0):
                continue
            resting, waking, _sent = self._census(tables, lock_id)
            if waking or len(resting) != 1:
                continue  # moving, or the count's to report
            st = tables[resting[0]]._tokens.get(lock_id)
            if st is None or not st.held:
                self._violate(
                    waiting[0],
                    f"lock {lock_id}: hosts {waiting} wait while its token "
                    f"rests idle at p{resting[0]}, with no grant, request, "
                    "forward or RecoveryDone on its way",
                )
        self.checks += 1
