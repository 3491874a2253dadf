"""Tests for the session manager: lifecycle, ranking memo, durability."""

import json

import pytest

from repro.crowd.oracle import GroundTruth
from repro.crowd.simulator import SimulatedCrowd
from repro.service.cache import TPOCache
from repro.api import InstanceSpec
from repro.service.manager import (
    ClosedSessionError,
    EventLog,
    SessionManager,
    UnknownSessionError,
)
from repro.tpo.builders import GridBuilder
from repro.utils.rng import derive_seed, ensure_rng

SPEC = {
    "workload": "uniform",
    "n": 10,
    "k": 3,
    "seed": 5,
    "params": {"width": 0.3},
}


def make_manager(**kwargs):
    kwargs.setdefault("builder", GridBuilder(resolution=256))
    return SessionManager(**kwargs)


def make_crowd(spec):
    distributions = InstanceSpec.from_dict(spec).materialize()
    truth = GroundTruth.sample(
        distributions, ensure_rng(derive_seed(spec["seed"], "truth"))
    )
    return SimulatedCrowd(truth, worker_accuracy=1.0)


def play(manager, sid, crowd, steps):
    """Answer up to ``steps`` questions through the manager."""
    for _ in range(steps):
        question = manager.next_question(sid)
        if question is None:
            break
        answer = crowd.ask(question)
        manager.submit_answer(
            sid, question.i, question.j, answer.holds, answer.accuracy
        )


class TestSpecs:
    def test_from_dict_fills_defaults_and_sorts_params(self):
        spec = InstanceSpec.from_dict(
            {"workload": "uniform", "n": 6, "k": 3, "params": {"width": 0.2}}
        ).to_dict()
        assert spec["seed"] == 0
        assert list(spec) == ["workload", "n", "k", "seed", "params"]

    def test_from_dict_clamps_k_to_n(self):
        assert InstanceSpec.from_dict({"n": 4, "k": 9}).k == 4

    @pytest.mark.parametrize(
        "bad",
        [
            {"workload": "nope", "n": 5, "k": 2},
            {"n": 1, "k": 1},
            {"n": 5, "k": 0},
            {"n": 5, "k": 2, "bogus": 1},
            {"n": 5, "k": 2, "params": "width"},
            {"n": 10.7, "k": 3.5, "seed": 1.5},
            {"n": "10", "k": 3},
            {"n": 10, "k": 3, "seed": True},
            "not-a-dict",
        ],
    )
    def test_from_dict_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            InstanceSpec.from_dict(bad)

    def test_materialize_is_process_stable(self):
        spec = InstanceSpec.from_dict(SPEC)
        first = spec.materialize()
        second = spec.materialize()
        assert [d.support for d in first] == [d.support for d in second]

    def test_manager_accepts_instance_spec_objects(self):
        manager = make_manager()
        sid = manager.create_session(InstanceSpec.from_dict(SPEC))
        assert manager.snapshot(sid)["spec"] == InstanceSpec.from_dict(
            SPEC
        ).to_dict()


class TestLifecycle:
    def test_equal_specs_share_one_build(self):
        manager = make_manager(cache=TPOCache(capacity=4))
        manager.create_session(SPEC)
        manager.create_session(dict(SPEC))
        assert manager.cache.misses == 1
        assert manager.cache.hits == 1

    def test_different_seeds_build_separately(self):
        manager = make_manager(cache=TPOCache(capacity=4))
        manager.create_session(SPEC)
        manager.create_session({**SPEC, "seed": 6})
        assert manager.cache.misses == 2

    def test_duplicate_session_id_rejected(self):
        manager = make_manager()
        manager.create_session(SPEC, session_id="dup")
        with pytest.raises(ValueError):
            manager.create_session(SPEC, session_id="dup")

    def test_unknown_session_raises(self):
        manager = make_manager()
        with pytest.raises(UnknownSessionError):
            manager.next_question("ghost")

    def test_closed_session_rejects_answers(self):
        manager = make_manager()
        sid = manager.create_session(SPEC)
        manager.close_session(sid)
        with pytest.raises(ClosedSessionError):
            manager.submit_answer(sid, 0, 1, True)
        # Snapshots remain available after close.
        assert manager.snapshot(sid)["status"] == "closed"

    def test_noncanonical_answer_is_flipped(self):
        manager = make_manager()
        sid = manager.create_session(SPEC)
        question = manager.next_question(sid)
        # Report the same fact with the pair reversed.
        manager.submit_answer(sid, question.j, question.i, False)
        answer = manager.snapshot(sid)["snapshot"]["answers"][0]
        assert answer == [question.i, question.j, True, 1.0]


class TestCoalescing:
    def test_identical_states_share_one_ranking(self):
        manager = make_manager()
        a = manager.create_session(SPEC)
        b = manager.create_session(dict(SPEC))
        questions = manager.next_questions([a, b])
        assert questions[a] == questions[b]
        assert manager.rankings_computed == 1
        assert manager.rankings_memo_hits == 1

    def test_memo_serves_repeat_lookups(self):
        manager = make_manager()
        sid = manager.create_session(SPEC)
        first = manager.next_question(sid)
        second = manager.next_question(sid)
        assert first == second
        assert manager.rankings_computed == 1
        assert manager.rankings_memo_hits == 1

    def test_diverged_states_rank_separately(self):
        manager = make_manager()
        a = manager.create_session(SPEC)
        b = manager.create_session(dict(SPEC))
        question = manager.next_question(a)
        manager.submit_answer(a, question.i, question.j, True)
        manager.next_questions([a, b])
        # b still at the initial state (memoized), a needs a new ranking.
        assert manager.rankings_computed == 2

    def test_next_question_matches_interactive_session(self):
        # The service must ask exactly what a standalone session would.
        from repro.core.session import InteractiveSession

        manager = make_manager()
        sid = manager.create_session(SPEC)
        spec = InstanceSpec.from_dict(SPEC)
        distributions = spec.materialize()
        space = (
            GridBuilder(resolution=256)
            .build(distributions, spec.k)
            .to_space()
        )
        standalone = InteractiveSession(distributions, spec.k, space)
        assert manager.next_question(sid) == standalone.next_question()


class TestDurability:
    def test_events_are_logged_as_jsonl(self, tmp_path):
        log = tmp_path / "events.jsonl"
        manager = make_manager(log_path=log)
        sid = manager.create_session(SPEC, session_id="s1")
        crowd = make_crowd(SPEC)
        play(manager, sid, crowd, 2)
        manager.close_session(sid)
        events = [json.loads(line) for line in log.read_text().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds == ["create", "answer", "answer", "close"]

    def test_resume_restores_exact_state(self, tmp_path):
        log = tmp_path / "events.jsonl"
        manager = make_manager(log_path=log)
        sid = manager.create_session(SPEC, session_id="s1")
        crowd = make_crowd(SPEC)
        play(manager, sid, crowd, 3)
        expected = manager.snapshot(sid)
        expected_next = manager.next_question(sid)
        del manager

        resumed = SessionManager.resume(
            log, builder=GridBuilder(resolution=256)
        )
        snapshot = resumed.snapshot("s1")
        assert snapshot["snapshot"] == expected["snapshot"]
        assert snapshot["top_k"] == expected["top_k"]
        assert snapshot["orderings"] == expected["orderings"]
        assert resumed.next_question("s1") == expected_next

    def test_resume_completes_like_uninterrupted(self, tmp_path):
        crowd_a = make_crowd(SPEC)
        reference = make_manager()
        ref_sid = reference.create_session(SPEC, session_id="s1")
        play(reference, ref_sid, crowd_a, 50)

        log = tmp_path / "events.jsonl"
        crowd_b = make_crowd(SPEC)
        interrupted = make_manager(log_path=log)
        interrupted.create_session(SPEC, session_id="s1")
        play(interrupted, "s1", crowd_b, 2)
        del interrupted

        resumed = SessionManager.resume(
            log, builder=GridBuilder(resolution=256)
        )
        play(resumed, "s1", crowd_b, 48)
        assert (
            resumed.snapshot("s1")["snapshot"]
            == reference.snapshot(ref_sid)["snapshot"]
        )
        assert resumed.snapshot("s1")["top_k"] == reference.snapshot(
            ref_sid
        )["top_k"]

    def test_resume_tolerates_torn_tail(self, tmp_path):
        log = tmp_path / "events.jsonl"
        manager = make_manager(log_path=log)
        manager.create_session(SPEC, session_id="s1")
        crowd = make_crowd(SPEC)
        play(manager, "s1", crowd, 2)
        # Tear the final line (killed mid-write).
        text = log.read_text()
        log.write_text(text[:-15])
        resumed = SessionManager.resume(
            log, builder=GridBuilder(resolution=256)
        )
        assert resumed.snapshot("s1")["questions_asked"] == 1
        # Appending after the torn tail must heal it, not glue the new
        # event onto the torn line (which would lose both).
        play(resumed, "s1", crowd, 1)
        events = EventLog(log).load()
        assert [e["event"] for e in events] == ["create", "answer", "answer"]

    def test_resume_skips_orphaned_events(self, tmp_path):
        log = tmp_path / "events.jsonl"
        EventLog(log).append(
            {
                "event": "answer",
                "session_id": "ghost",
                "i": 0,
                "j": 1,
                "holds": True,
                "accuracy": 1.0,
            }
        )
        resumed = SessionManager.resume(log)
        assert resumed.session_ids(status=None) == []
        assert resumed.replay_skipped == 1

    def test_resumed_manager_keeps_logging(self, tmp_path):
        log = tmp_path / "events.jsonl"
        manager = make_manager(log_path=log)
        manager.create_session(SPEC, session_id="s1")
        del manager
        resumed = SessionManager.resume(
            log, builder=GridBuilder(resolution=256)
        )
        crowd = make_crowd(SPEC)
        play(resumed, "s1", crowd, 1)
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert [event["event"] for event in events] == ["create", "answer"]


class TestStats:
    def test_listing_and_stats_survive_an_insert_mid_snapshot(
        self, interleaver
    ):
        """Regression: the server inserts sessions on its executor thread
        while ``GET /v1/sessions`` and ``/v1/stats`` copy the table on the
        loop thread; an insert landing inside the copy failed the request
        with "dictionary changed size during iteration"."""
        manager = make_manager()
        manager.create_session(SPEC, session_id="first")
        interleaver.install(
            manager,
            "_sessions",
            lambda: manager.create_session(SPEC, session_id="listed"),
        )
        assert manager.session_ids() == ["first"]
        interleaver.join()
        interleaver.install(
            manager,
            "_sessions",
            lambda: manager.create_session(SPEC, session_id="counted"),
        )
        assert manager.stats()["sessions"] == {"active": 2}
        interleaver.join()
        assert manager.session_ids() == ["first", "listed", "counted"]

    def test_stats_shape(self):
        manager = make_manager()
        sid = manager.create_session(SPEC)
        manager.next_question(sid)
        stats = manager.stats()
        assert stats["sessions"] == {"active": 1}
        assert stats["cache"]["misses"] == 1
        assert stats["rankings"]["computed"] == 1
        assert stats["evaluations"] > 0
