"""Every step-pinned crash schedule, in one table.

A row is a ``repro.faultinject.Schedule`` — one deterministic run (app,
seed, nodes, L, replication) and one crash point in it: its class, the
base crash ``(step, victim)`` it sits against (``None``: a single crash),
its own ``(step, victim)`` — with the outcome its judged ``run()`` must
reach and the mutant it guards against: the
``repro.faultinject.mutants.MUTANTS`` entry that undoes one fix
(DESIGN.md §6 and §9 name each root cause's mutant).

``test_crashsweep.py::test_pin`` judges every row twice: it must reach
its outcome as it is and miss it under its mutant. Moved timing can
carry a row off its root cause; the second judgement says so, and the
row is then relocated (the k=2 probe run under the mutant lists
candidates). A test that needs a schedule for another purpose looks it
up by name.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.faultinject import CrashPoint, Schedule

from tests.conftest import SMALL


class Pin(NamedTuple):
    schedule: Schedule
    outcome: str
    guards: str


def pin(
    app: str, seed: int, procs: int, l: float, replicate: bool, cls: str,
    base: Optional[Tuple[int, int]], point: Tuple[int, int], outcome: str,
    guards: str, small: bool = False,
) -> Pin:
    """A row: ``small`` runs the app at ``tests.conftest.SMALL`` sizes
    instead of its defaults."""
    step, victim = point
    config = {**(SMALL[app] if small else {}), "seed": seed}
    return Pin(
        Schedule(app, procs, l, replicate, config,
                 CrashPoint(cls, step, victim, base)),
        outcome, guards,
    )


def _sequential(app, procs, replicate, base, point):
    return pin(app, 42, procs, 0.1, replicate, "sequential", base, point,
               "recovered", "self_grant_mirrors_lost")


def _double(app, seed, procs, base, point, guards, replicate=True):
    return pin(app, seed, procs, 0.1, replicate, "double", base, point,
               "recovered" if replicate else "degraded", guards)


PINS = {
    # §6: one failure at a time. The symptom each row shows under its mutant
    "untouched_manager_places_its_token": pin(  # `kv total 1028.0 != 1033.0`
        "kvstore", 42, 32, 0.1, False, "every", None, (2100, 1),
        "recovered", "peer_token_reports_ignored"),
    # a second crash after the first victim went live: deadlock, or
    # `session table total 98.0 (112.0) != 105.0`
    "self_grant_twins_counter4": _sequential(
        "counter", 4, False, (187, 1), (335, 0)),
    "self_grant_twins_counter8": _sequential(
        "counter", 8, False, (419, 1), (959, 0)),
    "self_grant_twins_session4_p0_early": _sequential(
        "session", 4, False, (510, 0), (580, 1)),
    "self_grant_twins_session4_p0_late": _sequential(
        "session", 4, False, (919, 0), (1100, 1)),
    "self_grant_twins_session4_p3": _sequential(
        "session", 4, False, (510, 3), (621, 2)),
    "self_grant_twins_session4_replicated": _sequential(
        "session", 4, True, (1140, 3), (1515, 2)),
    "self_grant_twins_session8": _sequential(
        "session", 8, False, (2162, 7), (2399, 4)),
    # N = 2: a lost barrier episode (deadlock or `barrier episode
    # mismatch`), or a late self-grant mirror the llt checker flags
    "counter_overlap_barrier_log_restored": pin(
        "counter", 42, 2, 0.1, False, "recovery", (101, 1), (127, 0),
        "recovered", "barrier_log_replayed_only"),
    "counter_sequential_barrier_log_restored": pin(
        "counter", 42, 2, 0.1, False, "sequential", (101, 1), (143, 0),
        "recovered", "barrier_log_replayed_only"),
    "session_manager_count_from_checkpoint": pin(
        "session", 1, 2, 0.02, False, "sequential", (131, 1), (244, 0),
        "recovered", "barrier_log_replayed_only"),
    "session_late_self_grant_mirror_trimmed": pin(
        "session", 1, 2, 0.02, False, "sequential", (65, 0), (175, 1),
        "recovered", "late_mirror_kept"),
    # §9: overlapping failures. No schedule found fails under
    # `queued_grant_not_the_token` or `release_not_stashed` any more: a
    # direct handler test in test_protocol_direct.py kills each
    "recovery_done_held_for_a_down_manager": _double(  # deadlock
        "session", 0, 8, (2479, 6), (2603, 0), "recovery_done_dropped"),
    "owed_grant_is_not_a_second_token": _double(  # `lock 4: 2 tokens`
        "kvstore", 0, 8, (332, 4), (587, 5), "owed_grant_left_to_the_drain"),
    "owed_grant_completes_the_replayed_acquire": _double(  # deadlock
        "session", 7, 8, (1434, 5), (1865, 6), "owed_grant_left_to_the_drain"),
    "owed_grant_carries_its_notices": _double(  # `total 141.0 != 148.0`
        "session", 3, 8, (622, 2), (654, 3), "owed_grant_left_to_the_drain"),
    # `replay: self-grant of lock 0 without token at 3`; degrades instead
    "no_answer_taken_from_a_rebuilding_responder": _double(
        "session", 9, 4, (472, 2), (548, 3), "rebuilding_answer_taken",
        replicate=False),
    "spent_successor_pointer_is_not_a_waiter": _double(  # deadlock
        "session", 42, 8, (1427, 1), (1676, 3), "spent_edge_kept"),
    # read by a monitor test: p0's live switch grants on a repair forward
    # whose request stamp died with it, so the provisional grant draws an
    # AcqAck (no failure-free run sends one). Without the self-grant
    # mirrors the monitor flags a twin-less self-grant at the end
    "provisional_grant_confirmed": pin(
        "session", 42, 4, 0.2, False, "every", None, (404, 0), "recovered",
        "self_grant_mirrors_lost", small=True),
}
