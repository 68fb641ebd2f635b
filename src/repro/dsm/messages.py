"""Protocol message types and their modeled wire sizes.

Each message computes its own payload size, and :meth:`Message.wire_size`
adds :data:`MSG_HEADER` and turns it into the ``(size, ft_bytes)`` pair
the network accounts: the ``piggyback`` field (when present) carries the
lazily propagated LLT/CGC control data of §4.4.4 and its size is
accounted as ``ft_bytes`` so Table 2 can compare it against base protocol
traffic; a replication message is fault-tolerance traffic whole.

A vector timestamp costs :meth:`VClock.wire_bytes` (dense, or a bitmap of
its nonzero components followed by those): the bit saying which form a
stamp took, like the bit saying a ``LockForward`` or ``GrantInfo``
carries none, rides in the message's fixed bytes. A diff carries only its
writer's interval, the one component the home reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.dsm.diff import Diff
from repro.dsm.pages import PageId
from repro.dsm.vclock import COMPONENT_BYTES, VClock

__all__ = [
    "WriteNotice",
    "Piggyback",
    "Message",
    "LockAcquireReq",
    "LockForward",
    "LockGrant",
    "GrantInfo",
    "DiffMsg",
    "PageFetchReq",
    "PageFetchReply",
    "BarrierArrive",
    "BarrierRelease",
    "RecoveryQuery",
    "RecoveryReply",
    "RecoveryDone",
    "AcqAck",
    "ReplicaUpdate",
    "ReplicaAck",
    "MSG_HEADER",
    "NOTICE_BYTES",
    "RECOVERY_MSG_BYTES",
]

#: modeled wire header per protocol message
MSG_HEADER = 32
#: wire size of one write notice: its (creator, interval, page id) record
#: and one component for the creator interval's stamp, which the receiver
#: rebuilds from its interval tables
NOTICE_BYTES = 12 + COMPONENT_BYTES
#: recovery handshake/query message base size
RECOVERY_MSG_BYTES = 64


@dataclass(frozen=True)
class WriteNotice:
    """Invalidation record: ``creator`` wrote ``page`` in ``interval``.

    ``vt`` is the creator's vector time at the end of that interval; it is
    the version the page must reach at its home before a subsequent reader
    may use it.
    """

    creator: int
    interval: int
    page: PageId
    vt: VClock


@dataclass(frozen=True)
class Piggyback:
    """LLT/CGC control data attached to protocol messages (§4.4.4).

    ``tckps`` carries checkpoint timestamps (with checkpointed barrier
    episodes): the sender's own and — gossip-style — any it has learned
    about, delta-encoded so a timestamp travels to each destination only
    once. ``page_versions`` maps page ids homed at the sender to
    ``p0.v[receiver]`` — the single per-page integer a writer needs for
    lazy diff-log trimming (Rule 3.2).
    """

    tckps: Tuple[Tuple[int, VClock, int], ...] = ()  # (proc, Tckp, bar_ep)
    page_versions: Tuple[Tuple[PageId, int], ...] = ()

    def size_bytes(self) -> int:
        size = len(self.page_versions) * 12  # page id (8) + version (4)
        for _proc, tckp, _bar_ep in self.tckps:
            size += tckp.wire_bytes() + 6
        return size


@dataclass
class Message:
    """Base protocol message; subclasses define payload size."""

    piggyback: Optional[Piggyback] = field(default=None, kw_only=True)

    category: str = "misc"

    #: the whole payload is fault-tolerance traffic, not just the
    #: piggyback (a class attribute, not a field)
    all_ft = False

    def payload_bytes(self) -> int:
        raise NotImplementedError

    def wire_size(self) -> Tuple[int, int]:
        """``(size, ft_bytes)``: the modeled wire size (header + payload
        + piggyback) and its fault-tolerance share."""
        payload = self.payload_bytes()
        pb = self.piggyback
        ft = pb.size_bytes() if pb is not None else 0
        size = MSG_HEADER + payload + ft
        return size, (payload + ft if self.all_ft else ft)


@dataclass
class LockAcquireReq(Message):
    """Acquirer -> lock manager.

    ``seq`` is the acquirer's per-lock acquire counter: re-sent requests
    after a recovery are recognized and dropped by the manager.
    """

    lock_id: int = 0
    acquirer: int = 0
    acq_vt: VClock = None  # type: ignore[assignment]
    seq: int = 0
    category: str = "lock"

    def payload_bytes(self) -> int:
        return 12 + self.acq_vt.wire_bytes()


@dataclass
class LockForward(Message):
    """Lock manager -> last requester (distributed queueing).

    ``acq_vt`` is the stamp of the acquirer's request, or ``None`` on a
    repair forward whose request stamp did not survive a crash.
    """

    lock_id: int = 0
    acquirer: int = 0
    acq_vt: Optional[VClock] = None
    seq: int = 0
    category: str = "lock"

    def payload_bytes(self) -> int:
        vt = self.acq_vt
        return 12 + (vt.wire_bytes() if vt is not None else 0)


@dataclass
class GrantInfo(Message):
    """Grantor -> lock manager: the token moved to ``grantee``.

    For *self*-grants (a process re-acquiring its own resting token, which
    no peer observes) the message carries ``acq_t`` and goes to
    :meth:`DsmConfig.self_grant_holder`, which logs the rel half of the
    event's grant-log pair; replay after a crash of the grantor needs it
    to tell a completed local acquire apart from an acquire that never
    finished (§4.3).
    """

    lock_id: int = 0
    grantor: int = 0
    grantee: int = 0
    acq_t: Optional[VClock] = None  # set for self-grants only
    category: str = "lock"

    def payload_bytes(self) -> int:
        t = self.acq_t
        return 12 + (t.wire_bytes() if t is not None else 0)


@dataclass
class LockGrant(Message):
    """Previous owner -> acquirer: release vt + needed write notices.

    ``seq`` echoes the acquire request's sequence number: a recovered
    process uses it to discard queued grants whose acquire its replay
    already accounted for (the token must not be duplicated).
    ``provisional`` says the grantor did not know the request's stamp and
    logged a prediction, which the acquirer confirms with an
    :class:`AcqAck`; the bit rides in the 12 fixed bytes.
    """

    lock_id: int = 0
    grantor: int = 0
    rel_vt: VClock = None  # type: ignore[assignment]
    notices: List[WriteNotice] = field(default_factory=list)
    seq: int = 0
    provisional: bool = False
    category: str = "lock"

    def payload_bytes(self) -> int:
        return 12 + self.rel_vt.wire_bytes() + len(self.notices) * NOTICE_BYTES


@dataclass
class DiffMsg(Message):
    """Writer -> home: end-of-interval diff for one page.

    ``interval`` is the writer's interval that made the diff: the home
    needs no other component of the writer's clock to order it.
    """

    page: PageId = None  # type: ignore[assignment]
    writer: int = 0
    diff: Diff = None  # type: ignore[assignment]
    interval: int = 0
    category: str = "diff"

    def payload_bytes(self) -> int:
        return 8 + COMPONENT_BYTES + self.diff.size_bytes


@dataclass
class PageFetchReq(Message):
    """Faulting process -> home: request page at minimal version."""

    page: PageId = None  # type: ignore[assignment]
    requester: int = 0
    needed_v: VClock = None  # type: ignore[assignment]
    category: str = "page"

    def payload_bytes(self) -> int:
        return 8 + self.needed_v.wire_bytes()


@dataclass
class PageFetchReply(Message):
    """Home -> faulting process: full page copy + its version."""

    page: PageId = None  # type: ignore[assignment]
    data: bytes = b""
    version: VClock = None  # type: ignore[assignment]
    category: str = "page"

    def payload_bytes(self) -> int:
        return 8 + self.version.wire_bytes() + len(self.data)


@dataclass
class BarrierArrive(Message):
    """Participant -> barrier manager: vt + own notices since last barrier."""

    episode: int = 0
    proc: int = 0
    vt: VClock = None  # type: ignore[assignment]
    notices: List[WriteNotice] = field(default_factory=list)
    category: str = "barrier"

    def payload_bytes(self) -> int:
        return 8 + self.vt.wire_bytes() + len(self.notices) * NOTICE_BYTES


@dataclass
class BarrierRelease(Message):
    """Barrier manager -> participant: global vt + missing notices."""

    episode: int = 0
    global_vt: VClock = None  # type: ignore[assignment]
    notices: List[WriteNotice] = field(default_factory=list)
    category: str = "barrier"

    def payload_bytes(self) -> int:
        return (
            8 + self.global_vt.wire_bytes() + len(self.notices) * NOTICE_BYTES
        )


@dataclass
class AcqAck(Message):
    """Acquirer -> grantor: the *actual* timestamp of a provisional grant.

    A grantor that knows the request's stamp logs the acquirer's exact
    post-acquire vt. One that granted on a repair forward whose stamp died
    in a crash logs a prediction from the zero clock and marks the grant
    provisional; the acquirer answers only such a grant with this ack,
    so both halves of the §4.2.1 replicated rel/acq pair converge to the
    same vector time (DESIGN.md §7.6). Fault-tolerance traffic whole.
    """

    lock_id: int = 0
    acquirer: int = 0
    acq_t: VClock = None  # type: ignore[assignment]
    category: str = "lock"
    all_ft = True

    def payload_bytes(self) -> int:
        return 8 + self.acq_t.wire_bytes()


# ---------------------------------------------------------------------------
# replication traffic (buddy tier; only flows with FtConfig.replicate)
# ---------------------------------------------------------------------------


@dataclass
class ReplicaUpdate(Message):
    """Protected node -> buddy: mirror FT state into volatile memory.

    ``kind`` is one of:

    - ``"sync"``: full base snapshot, committed atomically on arrival
      (sent on install, on re-buddying, and when going live after a
      recovery);
    - ``"begin"`` / ``"commit"``: two-phase base refresh bracketing a
      checkpoint's disk write, mirroring the stable-storage commit-marker
      discipline so a sender crash mid-replication leaves a detectably
      *torn* replica record;
    - ``"op"``: one incremental log event appended to every retained base
      (grant, completed acquire, self-grant mirror, diff flush, barrier,
      owner move, rel-entry fixup);
    - ``"drop"``: the sender re-buddied away, free its replica here.
    """

    kind: str = ""
    protected: int = 0
    seqno: int = 0
    gen: int = 0
    body: object = None
    body_size: int = 0
    category: str = "replica"
    all_ft = True

    def payload_bytes(self) -> int:
        return 16 + self.body_size


@dataclass
class ReplicaAck(Message):
    """Buddy -> protected node: base ``seqno`` is held in replica memory.

    Garbage collection (CGC) may only collect page copies that are both
    superseded on disk *and* covered by an acked replica base — the ack is
    what moves the trim ceiling forward.
    """

    protected: int = 0
    seqno: int = 0
    gen: int = 0
    category: str = "replica"
    all_ft = True

    def payload_bytes(self) -> int:
        return 16


# ---------------------------------------------------------------------------
# recovery traffic (only flows after a failure)
# ---------------------------------------------------------------------------


@dataclass
class RecoveryQuery(Message):
    """Recovering process -> peer: initial handshake / log request.

    ``kind`` selects what is requested (handshake, page_diffs,
    home_diffs, starting_copy); ``detail`` carries the request
    parameters (a page id, a logical-time bound). ``about`` names whose
    state is asked for: the responder's own by default, or a lost peer's
    whose replicated image the responder holds as its buddy. Part of the
    constant modelled :data:`RECOVERY_MSG_BYTES` either way.
    """

    kind: str = ""
    requester: int = 0
    detail: object = None
    qid: int = 0
    about: Optional[int] = None
    category: str = "recovery"

    def payload_bytes(self) -> int:
        return RECOVERY_MSG_BYTES


@dataclass
class RecoveryReply(Message):
    """Peer -> recovering process: requested log entries / page copies.

    ``responder_crash_time`` / ``responder_recovering`` expose the
    responder's failure epoch so the recovering side can detect an
    *overlapping* failure (the responder failed after the requester, so
    its volatile logs may no longer cover what replay needs) and degrade
    with a clean diagnostic instead of silently diverging.
    """

    kind: str = ""
    responder: int = 0
    payload: object = None
    payload_size: int = 0
    qid: int = 0
    responder_crash_time: float = -1.0
    responder_recovering: bool = False
    category: str = "recovery"

    def payload_bytes(self) -> int:
        return RECOVERY_MSG_BYTES + self.payload_size


@dataclass
class RecoveryDone(Message):
    """Recovering process -> everyone: recovery finished, resume requests."""

    proc: int = 0
    category: str = "recovery"

    def payload_bytes(self) -> int:
        return 8
