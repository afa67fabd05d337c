"""Deterministic serving-layer tests: schedules, admission, timeouts.

Three property families:

* **Schedule purity** -- the merged arrival event stream is a pure
  function of ``(users, seed)``: rebuilding it yields the identical
  tuple, and the global ordering/tie-breaks are reproducible.
* **Virtual-clock semantics** -- :func:`~repro.serving.driver.simulate_served`
  runs the production :class:`~repro.serving.server.EngineServer` on its
  virtual clock (**no threads and no wall-clock sleeps**), so admission
  order, shed decisions, timeout firings, errored runs and the accounting
  invariant are asserted exactly and are bit-identical across replays.
* **Wall-clock smoke** -- small threaded runs through the same server
  check conservation (offered == completed + shed + errors), session-view
  temp isolation, the reporter's aggregate shape, and that a bad
  configuration raises to the caller under either admission policy.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.executor.subplan_cache import SubplanCache
from repro.serving.admission import AdmissionPolicy
from repro.serving.driver import run_served, simulate_served
from repro.serving.reporter import latency_summary, percentile
from repro.serving.schedule import (
    MAX_EVENTS_PER_USER,
    Arrival,
    Once,
    Repeat,
    UserSpec,
    build_arrivals,
    uniform_users,
)
from repro.serving.server import EngineServer, QueryTicket, ServingConfig
from tests.test_differential import build_differential_database, make_stream

SEED = 20260731


class TestSchedulePurity:
    def test_same_seed_same_stream(self):
        users = uniform_users(num_users=4, rate_per_user=5.0,
                              queries_per_user=10)
        first = build_arrivals(users, seed=SEED)
        second = build_arrivals(users, seed=SEED)
        assert first == second  # frozen dataclasses: field-exact equality

    def test_different_seed_different_times(self):
        users = uniform_users(4, 5.0, 10)
        a = build_arrivals(users, seed=SEED)
        b = build_arrivals(users, seed=SEED + 1)
        assert [e.time for e in a] != [e.time for e in b]

    def test_global_order_and_index_assignment(self):
        arrivals = build_arrivals(uniform_users(4, 5.0, 10), seed=SEED)
        assert len(arrivals) == 40
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert [a.index for a in arrivals] == list(range(40))
        for uid in range(4):
            seqs = [a.user_seq for a in arrivals if a.user_id == uid]
            assert seqs == sorted(seqs)  # per-user order survives the merge

    def test_simultaneous_arrivals_tie_break_on_user_id(self):
        users = tuple(UserSpec(uid, Once(at=0.0)) for uid in (3, 1, 2, 0))
        arrivals = build_arrivals(users, seed=SEED)
        assert [a.user_id for a in arrivals] == [0, 1, 2, 3]

    def test_metronome_gaps_are_exact(self):
        arrivals = build_arrivals(
            (UserSpec(0, Repeat(rate=2.0, count=4, jitter="none")),),
            seed=SEED)
        assert [a.time for a in arrivals] == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_max_events_truncates_after_the_merge(self):
        users = uniform_users(4, 5.0, 10)
        full = build_arrivals(users, seed=SEED)
        cut = build_arrivals(users, seed=SEED, max_events=7)
        assert len(cut) == 7
        assert [(a.time, a.user_id, a.user_seq) for a in cut] == \
            [(a.time, a.user_id, a.user_seq) for a in full[:7]]

    def test_validation(self):
        with pytest.raises(ValueError):
            Repeat(rate=0.0, count=1)
        with pytest.raises(ValueError):
            Repeat(rate=1.0, count=-1)
        with pytest.raises(ValueError):
            Repeat(rate=1.0, count=1, jitter="gaussian")
        with pytest.raises(ValueError):
            build_arrivals((UserSpec(0, Once()), UserSpec(0, Once())),
                           seed=SEED)

    def test_unbounded_schedule_hits_the_event_cap(self):
        huge = Repeat(rate=1.0, count=MAX_EVENTS_PER_USER * 2)
        arrivals = build_arrivals((UserSpec(0, huge),), seed=SEED,
                                  max_events=5)
        assert len(arrivals) == 5


def metronome(n: int, gap: float) -> tuple[Arrival, ...]:
    """n single-user arrivals with exact ``gap`` spacing starting at gap."""
    return build_arrivals(
        (UserSpec(0, Repeat(rate=1.0 / gap, count=n, jitter="none")),),
        seed=SEED)


class TestVirtualClockSimulation:
    def test_replay_is_bit_identical(self):
        arrivals = build_arrivals(uniform_users(3, 8.0, 12), seed=SEED)
        kwargs = dict(workers=2, queue_capacity=2,
                      policy=AdmissionPolicy.SHED,
                      service_time=lambda a: 0.05 + 0.15 * (a.index % 4),
                      timeout_seconds=0.4)
        first = simulate_served(arrivals, **kwargs)
        second = simulate_served(arrivals, **kwargs)
        assert first == second  # outcomes AND admission order

    def test_shed_decisions_are_exact(self):
        # 10 arrivals every 0.1s, one worker needing 0.35s each, queue of 1:
        # the worker holds a query for 3.5 arrival gaps, so most arrivals
        # find the single waiting slot occupied and are shed.
        arrivals = metronome(10, gap=0.1)
        outcomes, order = simulate_served(
            arrivals, workers=1, queue_capacity=1,
            policy=AdmissionPolicy.SHED, service_time=lambda a: 0.35)
        shed = [o.index for o in outcomes if o.shed]
        done = [o.index for o in outcomes if not o.shed]
        # Admitted: 0 (runs at .1), 1 (waits), then the slot only refills
        # after the worker picks up the waiting query at .45 and .80 --
        # so arrivals at .5 and .8 are admitted and the rest are shed.
        assert done == [0, 1, 4, 7]
        assert shed == [2, 3, 5, 6, 8, 9]
        assert order == done
        assert len(shed) + len(done) == len(arrivals)
        for o in outcomes:
            if not o.shed:
                assert o.finish_time == pytest.approx(o.start_time + 0.35)

    def test_block_never_sheds_and_preserves_arrival_order(self):
        arrivals = metronome(10, gap=0.1)
        outcomes, order = simulate_served(
            arrivals, workers=1, queue_capacity=1,
            policy=AdmissionPolicy.BLOCK, service_time=lambda a: 0.35)
        assert not any(o.shed for o in outcomes)
        assert order == [a.index for a in sorted(arrivals,
                                                 key=lambda a: a.time)]
        # Back-pressure pushes admission past the scheduled arrival time.
        delayed = [o for o in outcomes if o.admit_time > o.arrival_time + 1e-12]
        assert delayed, "BLOCK under overload must delay later arrivals"
        # One worker, FIFO queue: completions are serialized back to back.
        finishes = sorted(o.finish_time for o in outcomes)
        for earlier, later in zip(finishes, finishes[1:]):
            assert later == pytest.approx(earlier + 0.35)

    def test_block_resumes_at_half_drain(self):
        """A full capacity-4 queue admits its blocked submitter only once it
        has drained to 2: arrivals 6 and 8 wait for two takes each, and the
        arrival behind each is admitted at the same instant."""
        arrivals = metronome(10, gap=0.1)
        outcomes, order = simulate_served(
            arrivals, workers=1, queue_capacity=4,
            policy=AdmissionPolicy.BLOCK, service_time=lambda a: 0.35)
        assert order == list(range(10))
        assert [o.admit_time for o in outcomes] == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.15, 1.15, 1.85, 1.85])
        starts = [o.start_time for o in outcomes]
        assert starts == pytest.approx([0.1 + 0.35 * i for i in range(10)])
        for o in outcomes:  # never more than four admitted and waiting
            waiting = sum(1 for w in outcomes
                          if w.admit_time <= o.admit_time < w.start_time)
            assert waiting <= 4

    def test_timeouts_fire_deterministically(self):
        arrivals = metronome(9, gap=1.0)  # unloaded: every arrival admitted
        slow = {2, 5, 8}
        outcomes, _ = simulate_served(
            arrivals, workers=2, queue_capacity=4,
            policy=AdmissionPolicy.SHED,
            service_time=lambda a: 10.0 if a.index in slow else 0.05,
            timeout_seconds=0.5)
        assert {o.index for o in outcomes if o.timed_out} == slow
        for o in outcomes:
            if o.timed_out:
                # The cooperative deadline clips service at the budget.
                assert o.finish_time == pytest.approx(o.start_time + 0.5)

    def test_queue_wait_accounting(self):
        # Two arrivals, one worker: the second starts when the first ends.
        arrivals = metronome(2, gap=0.1)
        outcomes, _ = simulate_served(
            arrivals, workers=1, queue_capacity=4,
            policy=AdmissionPolicy.SHED, service_time=lambda a: 1.0)
        first, second = outcomes
        assert first.start_time == pytest.approx(0.1)
        assert second.start_time == pytest.approx(first.finish_time)
        summary = latency_summary(outcomes)
        assert summary["completed"] == 2
        assert summary["shed"] == 0
        # Open-loop latency: measured from the *scheduled* arrival.
        assert summary["max_latency"] == pytest.approx(
            second.finish_time - second.arrival_time)

    def test_summary_over_simulated_outcomes(self):
        arrivals = metronome(20, gap=0.05)
        outcomes, _ = simulate_served(
            arrivals, workers=2, queue_capacity=2,
            policy=AdmissionPolicy.SHED, service_time=lambda a: 0.2,
            timeout_seconds=5.0)
        summary = latency_summary(outcomes)
        assert summary["offered"] == 20
        assert summary["completed"] + summary["shed"] == 20
        assert summary["timeouts"] == 0
        assert summary["throughput_qps"] > 0
        assert (summary["p50_latency"] <= summary["p95_latency"]
                <= summary["p99_latency"] <= summary["max_latency"])

    def test_a_raising_run_gets_an_error_outcome(self):
        def service(arrival):
            if arrival.index == 3:
                raise RuntimeError("boom")
            return 0.1

        outcomes, order = simulate_served(
            metronome(6, gap=1.0), workers=1, queue_capacity=2,
            policy=AdmissionPolicy.SHED, service_time=service)
        assert [o.index for o in outcomes] == order == list(range(6))
        (failed,) = [o for o in outcomes if o.error]
        assert failed.index == 3
        assert failed.error == "RuntimeError: boom"
        assert failed.finish_time == failed.start_time  # the worker is freed
        summary = latency_summary(outcomes)
        assert summary["errors"] == 1
        assert summary["completed"] == 5
        assert summary["offered"] == (summary["completed"] + summary["shed"]
                                      + summary["errors"])

    def test_shutdown_refuses_a_lost_outcome(self, monkeypatch):
        server = EngineServer(None, ServingConfig(workers=1, queue_capacity=2),
                              service_time=lambda ticket: 0.1)
        monkeypatch.setattr(server, "_finish", lambda outcome: None)
        server.start()
        assert server.submit(QueryTicket(index=0, query=None, user_id=0,
                                         arrival_time=0.0))
        with pytest.raises(RuntimeError, match="1 tickets offered but 0"):
            server.shutdown()

    def test_percentile_helper(self):
        assert percentile([], 95) == 0.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)


def serve_within(seconds: float, *args, **kwargs):
    """``run_served`` on a daemon thread: its result, or the exception it
    raised re-raised here; a run still going after ``seconds`` fails."""
    box = []

    def serve() -> None:
        try:
            box.append(run_served(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 — re-raised on the caller
            box.append(exc)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "the served run hung"
    (result,) = box
    if isinstance(result, Exception):
        raise result
    return result


class TestRealServerSmoke:
    @pytest.fixture(scope="class")
    def db(self):
        return build_differential_database()

    def test_served_run_conserves_and_reports(self, db):
        generator = make_stream(db, seed=SEED)
        queries = generator.generate(16)
        arrivals = build_arrivals(uniform_users(4, 25.0, 4), seed=SEED,
                                  max_events=16)
        cache = SubplanCache()
        config = ServingConfig(workers=3, queue_capacity=8,
                               admission=AdmissionPolicy.BLOCK,
                               timeout_seconds=30.0, subplan_cache=cache)
        result = run_served(db, queries, arrivals, config, time_scale=0.1)
        summary = result.summary
        assert summary["offered"] == 16
        assert summary["completed"] == 16
        assert summary["shed"] == 0
        assert summary["errors"] == 0
        assert [o.index for o in result.outcomes] == list(range(16))
        assert all(o.report is not None for o in result.outcomes)
        assert result.workload_result("QuerySplit").reports
        assert cache.check_invariants() == []
        # keep_results defaults off: served runs must not pin result tables.
        assert all(o.report.final_table is None for o in result.outcomes)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_saturated_block_admission_completes_every_arrival(self, db,
                                                               workers):
        """A 2-slot BLOCK queue and every serving worker saturated from the
        first moment: the producer blocks on the admission fence while the
        workers drain it; every arrival must still complete, and the
        accounting must conserve each request.  Eight workers on a short
        switch interval make the take/submit interleavings dense."""
        queries = make_stream(db, seed=SEED + 7).generate(24)
        arrivals = build_arrivals(uniform_users(4, 500.0, 6), seed=SEED + 7,
                                  max_events=24)
        config = ServingConfig(algorithm="Default", workers=workers,
                               queue_capacity=2,
                               admission=AdmissionPolicy.BLOCK,
                               timeout_seconds=30.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = serve_within(60, db, queries, arrivals, config,
                                  time_scale=0.01)
        finally:
            sys.setswitchinterval(interval)
        summary = result.summary
        assert summary["offered"] == 24
        assert summary["completed"] == 24
        assert summary["shed"] == 0
        assert summary["errors"] == 0
        assert summary["timeouts"] == 0
        assert sorted(o.index for o in result.outcomes) == list(range(24))

    def test_blocked_submitter_waits_once_per_half_drain(self, db):
        """64 queries offered at once to one worker and a capacity-8 queue:
        each time the submitter blocks, it resumes with at most 4 queued and
        admits at least 4 before blocking again, so it waits at most
        ceil((64 - 8) / 4) + 1 times, not once per take."""
        queries = make_stream(db, seed=SEED).generate(64)
        server = EngineServer(db, ServingConfig(
            workers=1, queue_capacity=8, admission=AdmissionPolicy.BLOCK))
        wait = server._wait_for_worker
        waits = 0

        def counted_wait() -> None:
            nonlocal waits
            waits += 1
            wait()

        server._wait_for_worker = counted_wait
        server.start()
        for index, query in enumerate(queries):
            assert server.submit(QueryTicket(index=index, query=query,
                                             user_id=0, arrival_time=0.0))
        blocked = waits
        outcomes = server.shutdown()
        assert [o.index for o in outcomes] == list(range(64))
        assert not any(o.error for o in outcomes)
        assert blocked <= -(-(64 - 8) // 4) + 1

    @pytest.mark.parametrize("policy", list(AdmissionPolicy))
    def test_bad_algorithm_raises_to_the_caller(self, db, policy):
        """The runners are built before any arrival is offered, so an unknown
        algorithm is the caller's ValueError -- not a dead worker thread
        that loses arrivals (SHED) or strands a blocked submitter (BLOCK)."""
        queries = make_stream(db, seed=SEED).generate(8)
        arrivals = build_arrivals(uniform_users(2, 100.0, 4), seed=SEED,
                                  max_events=8)
        config = ServingConfig(algorithm="NoSuch", workers=2,
                               queue_capacity=2, admission=policy)
        with pytest.raises(ValueError, match="NoSuch"):
            serve_within(30, db, queries, arrivals, config, time_scale=0.01)

    def test_session_views_isolate_temp_tables(self, db):
        view_a = db.session_view()
        view_b = db.session_view()
        assert view_a.base_table_names == db.base_table_names
        generator = make_stream(db, seed=SEED)
        from repro.reopt.registry import make_algorithm
        runner = make_algorithm("QuerySplit", view_a)
        runner.run(generator.query_at(1))
        # QuerySplit materializes temps into its session and drops them on
        # completion; neither phase may leak into siblings or the base.
        assert view_b.temp_table_names == []
        assert db.temp_table_names == []

    def test_bad_arrival_index_rejected(self, db):
        queries = make_stream(db, seed=SEED).generate(2)
        bogus = (Arrival(time=0.0, user_id=0, user_seq=0, index=5),)
        with pytest.raises(IndexError):
            run_served(db, queries, bogus, ServingConfig(workers=1))
