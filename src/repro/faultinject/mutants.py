"""Every deliberate sabotage of the simulator, in one table.

``MUTANTS[name]()`` is a context manager. While its ``with`` block is
open, a mutant replaces one or two class or module attributes, so that
the simulator breaks exactly one rule, and it restores them on exit:

    with MUTANTS["cgc"]():
        cluster.run(app)

It holds no per-instance wrapper, so a sabotaged cluster is freed by
reference counting like any other (DESIGN.md §5, "Ownership"), and it
imports what it patches when entered. Enter it around the run it
sabotages. Three groups:

* the six **seeds**, keyed by the invariant class the monitor must flag
  (``repro monitor --seed-violation``); the run may die after the
  violation is recorded;
* the **root causes** of DESIGN.md §6 and §9: each undoes one recovery
  fix, and ``tests/pins.py::PINS`` rows name the one they guard;
* the **check mutants**: sabotage that only one check can see, and
  mutations of the checks themselves.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Tuple

from repro.cluster import DsmCluster, ProcHost
from repro.core.checkpoint import CheckpointManager
from repro.core.ftmanager import FtManager
from repro.core.logs import DiffLog, GrantLog, RelEntry
from repro.dsm.protocol import DsmProcess
from repro.dsm.vclock import VClock
from repro.sim.network import Network

__all__ = ["MUTANTS"]

MUTANTS: Dict[str, Callable[[], ContextManager[None]]] = {}

#: what a mutant sets: ``(owner, attribute name, value)``
Patches = List[Tuple[Any, str, Any]]
_UNSET = object()


def _mutant(fn: Callable[[], Patches]) -> Callable[[], Patches]:
    """Enter ``fn``'s patches as ``MUTANTS[name]``, a seed
    (``_seed_<class>``) under the invariant class it breaks."""

    @contextmanager
    def entered() -> Iterator[None]:
        patches = fn()
        saved = [(owner, name, vars(owner).get(name, _UNSET))
                 for owner, name, _value in patches]
        for owner, name, value in patches:
            setattr(owner, name, value)
        try:
            yield
        finally:
            for owner, name, old in reversed(saved):
                if old is _UNSET:  # inherited: delete, do not copy down
                    delattr(owner, name)
                else:
                    setattr(owner, name, old)

    MUTANTS[fn.__name__.removeprefix("_seed_")] = entered
    return fn


def _once() -> Callable[[], bool]:
    """A one-shot trigger: True at its first call only."""
    shot = iter((True,))
    return lambda: next(shot, False)


# -- seeds: one per invariant class of the monitor --------------------------
@_mutant
def _seed_cgc() -> Patches:
    """Rule 3.1: CGC passes collect nothing, so stale copies at or below
    Tmin pile up in every page's retained window."""
    return [(CheckpointManager, "collect", lambda self, tmin, **ceiling: 0)]


@_mutant
def _seed_llt() -> Patches:
    """Rules 2 and 3.2: LLT skips the diff-log trims and the rel-log ones
    (a rel trim bounds a peer's entries by that peer's component)."""
    trim = GrantLog.trim

    def rel_kept(self, peer, component, bound):
        return 0 if peer == component else trim(self, peer, component, bound)

    return [(DiffLog, "trim_page", lambda self, page, creator, keep: 0),
            (GrantLog, "trim", rel_kept)]


@_mutant
def _seed_vclock() -> Patches:
    """Vector-time monotonicity: after p1 completes its first barrier its
    vector time is zeroed."""
    complete, fire = DsmProcess._complete_barrier, _once()

    def zeroed(self, release):
        complete(self, release)
        if self.pid == 1 and fire():
            self.vt = type(self.vt).zero(self.n)

    return [(DsmProcess, "_complete_barrier", zeroed)]


@_mutant
def _seed_fifo() -> Patches:
    """Per-channel FIFO: on channel p1->p0 the first delivery with
    another message in flight behind it is held back and delivered after
    that follower, once (holding only then keeps the run from
    deadlocking on a request that never lands)."""
    net_send, net_deliver = Network.send, Network._deliver
    state: Dict[str, Any] = {"inflight": 0, "held": None, "done": False}

    def send(self, src, dst, *rest):
        if (src, dst) == (1, 0):
            state["inflight"] += 1
        net_send(self, src, dst, *rest)

    def deliver(self, src, dst, *rest):
        if (src, dst) == (1, 0):
            state["inflight"] -= 1
            held = state["held"]
            if held is None and not state["done"] and state["inflight"] >= 1:
                state["held"] = rest
                return
            if held is not None:
                state["done"], state["held"] = True, None
                net_deliver(self, src, dst, *rest)
                rest = held
        net_deliver(self, src, dst, *rest)

    return [(Network, "send", send), (Network, "_deliver", deliver)]


@_mutant
def _seed_recoverability() -> Patches:
    """Rule 3's precondition: right after p0's first checkpoint commit,
    every retained copy of one of its pages is discarded."""
    commit, fire = CheckpointManager.commit_staged, _once()

    def lossy(self, *args, **kwargs):
        out = commit(self, *args, **kwargs)
        if self.pid == 0 and self.page_copies and fire():
            # drop the key, not just the copies: an empty list would trip
            # run_cgc in the same engine event, before any scan saw it
            del self.page_copies[next(iter(self.page_copies))]
        return out

    return [(CheckpointManager, "commit_staged", lossy)]


@_mutant
def _seed_lock() -> Patches:
    """One token per lock: the first grantor to send a ``LockGrant``
    keeps ``has_token`` too."""
    grant_to, fire = DsmProcess._grant_to, _once()

    def kept(self, lock_id, acquirer, *args):
        grant_to(self, lock_id, acquirer, *args)
        if acquirer != self.pid and fire():
            self.locks.token(lock_id).has_token = True

    return [(DsmProcess, "_grant_to", kept)]


# -- root causes: each undoes one recovery fix (DESIGN.md §6, §9) ----------
@_mutant
def home_twin_unpatched() -> Patches:
    """§6 root cause 1: a home writes a remote diff into the page but not
    into its open twin, so the diff it logs at its flush claims the
    remote writer's bytes and a replay re-applies them over newer data."""
    from repro.dsm.diff import apply_diff

    def page_only(self, page, diff):
        apply_diff(self.page_bytes(page), diff)
        return 1

    return [(DsmProcess, "apply_remote_diff", page_only)]


@_mutant
def peer_token_reports_ignored() -> Patches:
    """§6 root cause 2: the live switch places no token from its peers'
    reports, so a lock the recovering manager never touched starts with
    the token at the manager while a peer holds it."""
    from repro.core.recovery import ReplayDriver

    finalize = ReplayDriver.finalize

    def blind(self):
        self.owner_reports.clear()
        self.peer_token_holders.clear()
        finalize(self)

    return [(ReplayDriver, "finalize", blind)]


@_mutant
def self_grant_mirrors_lost() -> Patches:
    """§6 root cause 3: the handshake restores none of the peers'
    self-grant mirrors (their ``local`` acq entries), so a recovered
    holder keeps no twin of those grants for a later crash's replay."""
    from repro.core.recovery import ReplayDriver

    ingest = ReplayDriver.ingest_handshakes

    def no_local(self, replies):
        ingest(self, {
            src: {**payload, "acq_mirror": [
                e for e in payload["acq_mirror"] if not e.local
            ]}
            for src, payload in replies.items()
        })

    return [(ReplayDriver, "ingest_handshakes", no_local)]


@_mutant
def barrier_log_replayed_only() -> Patches:
    """§6 root cause 4: a recovered node's barrier log keeps its
    checkpoint's episodes and those it replays, not its peers' union,
    and a recovering barrier manager that no peer's log carries past its
    checkpoint restarts its count at episode 0."""
    from repro.core.recovery import ReplayDriver

    ingest, replay = ReplayDriver.ingest_handshakes, ReplayDriver.replay_barrier

    def own_only(self, replies):
        bar = self.ft.logs.bar
        kept = dict(bar)
        ingest(self, replies)
        bar.clear()
        bar.update(kept)
        proto = self.proto
        mgr = proto.barrier_mgr
        if mgr is not None and max(self.bar, default=-1) < proto.barrier_episode:
            mgr.next_episode, mgr.last_global = 0, VClock.zero(proto.n)

    def logged(self, episode):
        done = yield from replay(self, episode)
        if done:
            self.ft.logs.bar[episode] = self.bar[episode]
        return done

    return [(ReplayDriver, "ingest_handshakes", own_only),
            (ReplayDriver, "replay_barrier", logged)]


@_mutant
def late_mirror_kept() -> Patches:
    """§6 root cause 5: a self-grant mirror drained at the holder's live
    switch is logged (and replicated) even below the Rule 2 bound that
    LLT does not revisit."""
    def kept(self, grantor, lock_id, acq_t):
        self.logs.rel.append(grantor, lock_id, acq_t, local=True)
        if self.repl is not None:
            self.repl.op(("mself", grantor, lock_id, acq_t))

    return [(FtManager, "on_self_grant_mirror", kept)]


@_mutant
def queued_grant_not_the_token() -> Patches:
    """§9 root cause 1: a grant for an acquire replay already completed
    is always a duplicate, even the one that queued while this host was
    down and is the physical token."""
    handle = DsmProcess._handle_grant

    def duplicate(self, src, grant):
        if not grant.seq or grant.seq > self._completed_seq.get(grant.lock_id, 0):
            handle(self, src, grant)

    return [(DsmProcess, "_handle_grant", duplicate)]


@_mutant
def queued_owner_ignored() -> Patches:
    """§9 root cause 2: the live switch ignores the ``GrantInfo`` stream
    that queued meanwhile and places the tokens of the locks it manages
    from the handshake's (possibly stale) snapshots."""
    from repro.core.recovery import ReplayDriver

    transfers = ReplayDriver.queued_transfers
    return [(ReplayDriver, "queued_transfers",
             lambda self: ({}, transfers(self)[1]))]


@_mutant
def recovery_done_dropped() -> Patches:
    """§9 root cause 3: a ``RecoveryDone`` reaching a down host is
    dropped, so the forwards and requests it would re-issue are lost."""
    from repro.dsm.messages import RecoveryDone

    handle = DsmCluster._handle_recovery_msg

    def dropped(self, dst, src, msg):
        if not isinstance(msg, RecoveryDone) or self.hosts[dst].live:
            handle(self, dst, src, msg)

    return [(DsmCluster, "_handle_recovery_msg", dropped)]


@_mutant
def owed_grant_left_to_the_drain() -> Patches:
    """§9 root cause 4: the acquire whose replay runs out goes live
    without the grant queued for it, which the drain then takes for a
    stray token."""
    from repro.core.recovery import ReplayDriver

    replay = ReplayDriver.replay_acquire

    def live(self, lock_id, seq):
        if not self.acquire_records.get(lock_id):
            self.go_live()
            return False
        return (yield from replay(self, lock_id, seq))

    return [(ReplayDriver, "replay_acquire", live)]


@_mutant
def rebuilding_answer_taken() -> Patches:
    """§9 root cause 5, both replication-only forks back: without
    replication, a recovering host answers the queries held while it was
    down only at its live switch, and one that is still rebuilding
    answers as if live, so its answer is taken as final instead of asked
    again."""
    from repro.core import recovery

    answer, answer_held = recovery.answer_query, recovery.RecoveryManager.answer_held

    def at_live_switch(self):
        if self.cluster.replication:
            answer_held(self)

    def as_live(host, src, query):
        recovering = host.recovering
        if not host.cluster.replication:
            host.recovering = False
        try:
            answer(host, src, query)
        finally:
            host.recovering = recovering

    return [(recovery, "answer_query", as_live),
            (recovery.RecoveryManager, "answer_held", at_live_switch)]


@_mutant
def spent_edge_kept() -> Patches:
    """§9 root cause 6, the chain: a successor pointer a queued
    ``GrantInfo`` spent is rebuilt as a waiter."""
    from repro.core.recovery import ReplayDriver

    transfers = ReplayDriver.queued_transfers
    return [(ReplayDriver, "queued_transfers",
             lambda self: (transfers(self)[0], set()))]


@_mutant
def lock_request_resent_to_every_manager() -> Patches:
    """§9 root cause 6, the request: a ``RecoveryDone`` re-sends every
    pending lock request to its manager, recovered or not, where it can
    race the grant already on its way."""
    resend = DsmProcess.resend_pending

    def everywhere(self, recovered):
        resend(self, recovered)
        for lock_id, req in list(self._pending_acquires.items()):
            manager = self.config.lock_manager(lock_id)
            if manager != recovered:
                self._post(manager, req)

    return [(DsmProcess, "resend_pending", everywhere)]


@_mutant
def release_not_stashed() -> Patches:
    """§9: a barrier release that answers a pre-crash arrival and lands
    before the re-executed barrier call is dropped, not kept for it."""
    handle = DsmProcess._handle_barrier_release

    def dropped(self, src, release):
        if self._barrier_future is not None:
            handle(self, src, release)

    return [(DsmProcess, "_handle_barrier_release", dropped)]


@_mutant
def rel_fix_dropped() -> Patches:
    """§9 "one answer": a buddy's image ignores ``rel_fix`` ops, so it
    keeps a provisional grant's prediction where the live log holds the
    acquirer's actual stamp."""
    from repro.core.replica import FtImage

    apply = FtImage.apply
    return [(FtImage, "apply",
             lambda self, op: None if op[0] == "rel_fix" else apply(self, op))]


# -- check mutants: sabotage one check alone sees; the checks' mutations --
@_mutant
def corrupt_first_confirm() -> Patches:
    """The first ``AcqAck`` any grantor handles leaves a rel entry
    stamped beyond the acquirer's actual timestamp, in a new list of the
    same length (as a confirm that changes an entry installs one): only
    a replaced bucket shows it."""
    confirm, fire = GrantLog.confirm, _once()

    def corrupt(self, acquirer, lock_id, actual_t, own_pid):
        out = confirm(self, acquirer, lock_id, actual_t, own_pid)
        bucket = self.entries[acquirer]
        for k, e in enumerate(bucket):
            if e.lock_id == lock_id and e.acq_t == actual_t and fire():
                bad = actual_t.with_component(acquirer, actual_t[acquirer] + 1)
                self.entries[acquirer] = [
                    *bucket[:k], RelEntry(lock_id, bad), *bucket[k + 1:]
                ]
        return out

    return [(GrantLog, "confirm", corrupt)]


def _mislogged(stamp_of: Callable[[VClock, int, VClock], VClock]) -> Patches:
    """Every grantor logs ``stamp_of(acq_vt, acquirer, rel_vt)`` for a
    grant instead of the acquirer's actual timestamp,
    ``acq_vt.bump(acquirer).join(rel_vt)``, and marks none provisional."""
    grant_to, on_grant = DsmProcess._grant_to, FtManager.on_grant
    logged: List[VClock] = []

    def mislogged(self, lock_id, acquirer, acq_vt, seq=0):
        zero = VClock.zero(self.n)
        rel_vt = self.locks.token(lock_id).rel_vt or zero
        logged.append(stamp_of(acq_vt or zero, acquirer, rel_vt))
        try:
            grant_to(self, lock_id, acquirer, acq_vt, seq)
        finally:
            logged.pop()

    def log(self, lock_id, acquirer, acq_t, provisional):
        if logged:
            acq_t, provisional = logged[-1], False
        on_grant(self, lock_id, acquirer, acq_t, provisional)

    return [(DsmProcess, "_grant_to", mislogged), (FtManager, "on_grant", log)]


@_mutant
def mislogged_unjoined() -> Patches:
    """The release vt is never joined: the grantor's own component is
    stale, so the acquire looks missing behind an older-looking grant."""
    return _mislogged(lambda acq_vt, acquirer, rel_vt: acq_vt.bump(acquirer))


@_mutant
def mislogged_unstamped() -> Patches:
    """The request's stamp is ignored, as for a lost one, but the grant
    is not marked provisional: no ``AcqAck`` will come."""
    return _mislogged(lambda acq_vt, acquirer, rel_vt:
                      VClock.zero(len(acq_vt.v)).bump(acquirer).join(rel_vt))


@_mutant
def late_first_grant_log() -> Patches:
    """The first exact grant any grantor makes to an acquirer it keeps
    nothing for reaches its ``rel_log`` 1 ms late, appended in place,
    stamped beyond the acquirer's actual timestamp. Until then the
    acquirer's half is missing with nothing older kept, which is legal:
    only a recheck of a missing entry shows it."""
    on_grant, fire = FtManager.on_grant, _once()

    def late(self, lock_id, acquirer, acq_t, provisional):
        if not provisional and not self.logs.rel.entries[acquirer] and fire():
            bad = acq_t.with_component(acquirer, acq_t[acquirer] + 1)
            self.proc.engine.schedule(
                1e-3, lambda: on_grant(self, lock_id, acquirer, bad, False)
            )
            return
        on_grant(self, lock_id, acquirer, acq_t, provisional)

    return [(FtManager, "on_grant", late)]


@_mutant
def diff_ahead() -> Patches:
    """The first ``DiffMsg`` sent carries an interval 5 ahead of its
    writer's."""
    from repro.dsm.messages import DiffMsg

    send, fire = DsmProcess._send, _once()

    def ahead(self, dst, msg):
        if type(msg) is DiffMsg and fire():
            msg.interval += 5
        send(self, dst, msg)

    return [(DsmProcess, "_send", ahead)]


@_mutant
def drop_first_forward() -> Patches:
    """The first ``LockForward`` any host handles is lost, so its
    acquirer waits behind a token that rests idle. A protocol copies its
    handler table when it is built (at setup and at each recovery), so
    the run must start inside the block."""
    from repro.dsm import protocol
    from repro.dsm.messages import LockForward

    handlers = protocol.PROTOCOL_HANDLERS
    handle, fire = handlers[LockForward], _once()

    def drop(proc, src, fwd):
        if not fire():
            handle(proc, src, fwd)

    return [(protocol, "PROTOCOL_HANDLERS", {**handlers, LockForward: drop})]


@_mutant
def token_flip_at_drain() -> Patches:
    """p1's token of lock 0 flips each time its queue drains at a live
    switch."""
    drain = ProcHost.drain_queue

    def flip(self):
        drain(self)
        if self.pid == 1:
            st = self.proto.locks.token(0)
            st.has_token = not st.has_token

    return [(ProcHost, "drain_queue", flip)]


@_mutant
def recovery_raises() -> Patches:
    """Every recovery fails as it installs its FT layer."""
    install = DsmCluster._install_ft

    def broken(self, host):
        if host.recovering:
            raise RuntimeError(f"p{host.pid} recovery sabotaged")
        install(self, host)

    return [(DsmCluster, "_install_ft", broken)]


@_mutant
def blind_to_replaced_buckets() -> Patches:
    """The recoverability memo's pair signature ignores which lists the
    buckets are: an incremental scan re-points every remembered pair at
    the current buckets, so a verified pair stays verified while their
    lengths hold. A full scan remembers nothing and is unaffected."""
    from repro.observe.invariants.recoverability import RecoverabilityChecker

    scan = RecoverabilityChecker.scan

    def blind(self, full, final):
        if not full:
            hosts = self.hosts
            for (i, g), seen in self._pairs_ok.items():
                if hosts[i].ft is not None and hosts[g].ft is not None:
                    seen.mine = hosts[i].ft.logs.acq.entries[g]
                    seen.rel = hosts[g].ft.logs.rel.entries[i]
        scan(self, full, final)

    return [(RecoverabilityChecker, "scan", blind)]


@_mutant
def forgets_missing() -> Patches:
    """The recoverability memo's pair extension forgets the acquirer's
    entries it let pass as missing with nothing older kept, and checks
    only appended ones. A full scan remembers nothing and is unaffected."""
    from repro.observe.invariants.recoverability import RecoverabilityChecker

    scan = RecoverabilityChecker.scan

    def forgetful(self, full, final):
        if not full:
            for seen in self._pairs_ok.values():
                seen.missing = []
        scan(self, full, final)

    return [(RecoverabilityChecker, "scan", forgetful)]


@_mutant
def pairwise_sum() -> Patches:
    """Barnes' force kernel sums every prefix with ``np.sum`` (pairwise
    over a contiguous row) instead of ``np.add.accumulate``: the same
    terms in another order, so the last bits move."""
    from types import SimpleNamespace

    import numpy as np

    from repro.apps import barnes

    def accumulate(a, axis):
        return np.array([[np.ascontiguousarray(row[: j + 1].T).sum(axis=1)
                          for j in range(len(row))] for row in a])

    class Pairwise:
        add = SimpleNamespace(accumulate=accumulate)

        def __getattr__(self, name):
            return getattr(np, name)

    return [(barnes, "np", Pairwise())]
