"""Unit tests for checkpointing and CGC (Rule 3.1)."""

import pickle

import pytest

from repro.core.checkpoint import (
    Checkpoint,
    CheckpointManager,
    PageCopy,
    maximal_starting_copy,
)
from repro.core.logs import DiffLog
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock
from repro.sim.storage import CheckpointStore

N = 4
P0, P1 = PageId(0, 0), PageId(0, 1)


def vt(*c):
    return VClock(c)


def mk_ckpt(pid, seqno, tckp):
    return Checkpoint(
        pid=pid,
        seqno=seqno,
        tckp=tckp,
        app_state_blob=pickle.dumps({"step": seqno}),
        own_notices=[],
        diff_log=DiffLog(),
        lock_tokens={},
        acq_seq={},
        barrier_episode=0,
        last_barrier_global=VClock.zero(N),
    )


def mk_mgr():
    mgr = CheckpointManager(0, N, CheckpointStore(0))
    mgr.seed_initial_pages({P0: b"\x00" * 64, P1: b"\x00" * 64})
    return mgr


def test_seed_and_reseed_idempotent():
    mgr = mk_mgr()
    assert mgr.page_copies[P0][0].ckpt_seqno == 0
    before = mgr.pages_retained_bytes
    mgr.seed_initial_pages({P0: b"\xff" * 64})  # must not overwrite
    assert mgr.pages_retained_bytes == before
    assert mgr.page_copies[P0][0].data == b"\x00" * 64


def test_commit_sequencing():
    mgr = mk_mgr()
    c1 = mk_ckpt(0, 1, vt(2, 0, 0, 0))
    written = mgr.commit(c1, {P0: (b"\x01" * 64, vt(2, 0, 0, 0))})
    assert written == 64
    assert mgr.latest is c1
    assert c1.homed_versions[P0] == vt(2, 0, 0, 0)
    with pytest.raises(ValueError):
        mgr.commit(mk_ckpt(0, 5, vt(3, 0, 0, 0)), {})


def test_restore_app_state():
    c = mk_ckpt(0, 1, vt(1, 0, 0, 0))
    assert c.restore_app_state() == {"step": 1}


def test_cgc_keeps_maximal_starting_copy():
    mgr = mk_mgr()
    for s, v in ((1, 2), (2, 5), (3, 9)):
        mgr.commit(
            mk_ckpt(0, s, vt(v, 0, 0, 0)),
            {P0: (bytes([s]) * 64, vt(v, 0, 0, 0))},
        )
    # Tmin allows versions <= 5: copies 0 (v0) and seq1 (v2) below seq2
    # (v5, the maximal starting copy) are dropped; seq2 and seq3 retained
    freed = mgr.collect(vt(5, 9, 9, 9))
    copies = mgr.page_copies[P0]
    assert [c.ckpt_seqno for c in copies] == [2, 3]
    assert freed == 128
    # P1 was never checkpointed: its seed (checkpoint 0) must survive
    assert mgr.retained_seqnos == [0, 2, 3]
    assert [c.ckpt_seqno for c in mgr.page_copies[P1]] == [0]


def test_cgc_never_collects_latest():
    mgr = mk_mgr()
    mgr.commit(mk_ckpt(0, 1, vt(1, 0, 0, 0)), {P0: (b"a" * 64, vt(1, 0, 0, 0))})
    mgr.collect(vt(99, 99, 99, 99))
    assert mgr.latest.seqno == 1
    assert mgr.page_copies[P0][-1].ckpt_seqno == 1
    assert ("ckpt", 1) in mgr.store.committed_keys()


def test_cgc_with_zero_tmin_keeps_everything():
    mgr = mk_mgr()
    mgr.commit(mk_ckpt(0, 1, vt(3, 0, 0, 0)), {P0: (b"a" * 64, vt(3, 0, 0, 0))})
    freed = mgr.collect(VClock.zero(N))
    assert freed == 0
    assert [c.ckpt_seqno for c in mgr.page_copies[P0]] == [0, 1]


def test_window_tracking():
    mgr = mk_mgr()
    for s in range(1, 4):
        mgr.commit(
            mk_ckpt(0, s, vt(s, 0, 0, 0)),
            {
                P0: (b"x" * 64, vt(s, 0, 0, 0)),
                P1: (b"y" * 64, vt(s, 0, 0, 0)),
            },
        )
        mgr.collect(VClock.zero(N))  # no progress known: window grows
    assert mgr.window_size == 4  # virtual 0 + 3 checkpoints
    assert mgr.max_window == 4
    mgr.collect(vt(3, 9, 9, 9))
    assert mgr.window_size == 1
    assert mgr.max_window == 4


def test_maximal_starting_copy_respects_ceiling():
    mgr = mk_mgr()
    for s, v in ((1, 2), (2, 5)):
        mgr.commit(
            mk_ckpt(0, s, vt(v, 0, 0, 0)),
            {P0: (bytes([s]) * 64, vt(v, 0, 0, 0))},
        )
    # a recovery whose replay ceiling is (3,...) must get the v2 copy,
    # not the newer v5 copy
    copy = maximal_starting_copy(mgr.page_copies[P0], vt(3, 9, 9, 9))
    assert copy.version == vt(2, 0, 0, 0)
    copy = maximal_starting_copy(mgr.page_copies[P0], vt(9, 9, 9, 9))
    assert copy.version == vt(5, 0, 0, 0)


def test_maximal_starting_copy_errors():
    """An empty chain, or one with nothing within the ceiling, has no
    usable copy (a live responder reports that as the Rule 3 error)."""
    mgr = mk_mgr()
    mgr.commit(mk_ckpt(0, 1, vt(2, 0, 0, 0)), {P0: (b"x" * 64, vt(2, 0, 0, 0))})
    assert maximal_starting_copy((), vt(0, 0, 0, 0)) is None
    assert maximal_starting_copy(mgr.page_copies[P0][1:], vt(1, 9, 9, 9)) is None


def test_old_checkpoint_records_pruned_with_their_copies():
    mgr = mk_mgr()
    store = mgr.store
    for s, v in ((1, 1), (2, 2), (3, 3)):
        mgr.commit(
            mk_ckpt(0, s, vt(v, 0, 0, 0)), {P0: (b"x" * 64, vt(v, 0, 0, 0))}
        )
    assert ("ckpt", 1) in store
    mgr.collect(vt(3, 9, 9, 9))
    assert ("ckpt", 1) not in store
    assert ("ckpt", 3) in store
    assert ("ckpt", 1) not in mgr.store.committed_keys()


def test_staged_checkpoint_is_invisible_until_committed():
    mgr = mk_mgr()
    c1 = mk_ckpt(0, 1, vt(2, 0, 0, 0))
    homed = {P0: (b"\x01" * 64, vt(2, 0, 0, 0))}
    mgr.stage(c1, homed)
    # staged but torn: not the restart point, pages not retained
    assert mgr.latest is None
    assert ("ckpt", 1) not in mgr.store.committed_keys()
    assert mgr.store.is_pending(("ckpt", 1))
    mgr.commit_staged(c1, homed)
    assert mgr.latest is c1
    assert not mgr.store.is_pending(("ckpt", 1))


def test_commit_staged_requires_stage():
    mgr = mk_mgr()
    c1 = mk_ckpt(0, 1, vt(2, 0, 0, 0))
    with pytest.raises(RuntimeError, match="unstaged"):
        mgr.commit_staged(c1, {})


def test_discard_torn_falls_back_to_previous_checkpoint():
    mgr = mk_mgr()
    c1 = mk_ckpt(0, 1, vt(2, 0, 0, 0))
    mgr.commit(c1, {P0: (b"\x01" * 64, vt(2, 0, 0, 0))})
    c2 = mk_ckpt(0, 2, vt(4, 0, 0, 0))
    mgr.stage(c2, {P0: (b"\x02" * 64, vt(4, 0, 0, 0))})
    # crash here: c2 has no commit marker; recovery discards it
    assert mgr.discard_torn() == 1
    assert mgr.torn_discarded == 1
    assert ("ckpt", 2) not in mgr.store
    assert mgr.latest is c1
    # the torn seqno is burned, not reused
    c3 = mk_ckpt(0, 3, vt(6, 0, 0, 0))
    mgr.commit(c3, {P0: (b"\x03" * 64, vt(6, 0, 0, 0))})
    assert mgr.latest is c3


def test_discard_torn_noop_when_clean():
    mgr = mk_mgr()
    assert mgr.discard_torn() == 0
    assert mgr.torn_discarded == 0


def test_cgc_racing_staged_checkpoint_leaves_stage_intact():
    """CGC pass racing the stage→commit window.

    ``take_checkpoint`` stages the new checkpoint, then spends virtual
    time on the disk write before committing; a piggybacked Tckp can
    trigger a CGC-relevant state change in between. A collect in that
    window must treat the staged checkpoint as nonexistent: it is not
    the restart point, its pages are not retained copies, and the
    commit that follows must land exactly as if no collect had run.
    """
    mgr = mk_mgr()
    c1 = mk_ckpt(0, 1, vt(2, 0, 0, 0))
    mgr.commit(c1, {P0: (b"\x01" * 64, vt(2, 0, 0, 0))})

    c2 = mk_ckpt(0, 2, vt(6, 0, 0, 0))
    homed = {P0: (b"\x02" * 64, vt(6, 0, 0, 0))}
    mgr.stage(c2, homed)

    # collect with an aggressive Tmin while c2 is staged-but-uncommitted
    mgr.collect(vt(99, 99, 99, 99))
    # the committed c1 is the latest and survives (never collect latest);
    # the staged c2 contributed nothing collectible and stays pending
    assert mgr.latest is c1
    assert [c.ckpt_seqno for c in mgr.page_copies[P0]] == [1]
    assert mgr.store.is_pending(("ckpt", 2))
    assert ("ckpt", 2) not in mgr.store.committed_keys()

    # commit still lands cleanly after the racing collect
    mgr.commit_staged(c2, homed)
    assert mgr.latest is c2
    assert [c.ckpt_seqno for c in mgr.page_copies[P0]] == [1, 2]
    # retained floor stayed monotone throughout: versions only grow
    versions = [c.version[0] for c in mgr.page_copies[P0]]
    assert versions == sorted(versions)
