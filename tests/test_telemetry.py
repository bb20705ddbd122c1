"""Tests for repro.telemetry: the sink, tracing, counters, and wiring.

The distributed scenarios mirror test_dist: a worker crash consumed by
a retry and mixed old/new protocol peers — here asserting that the
*telemetry* survives each of them with a complete, well-parented span
tree.
"""

import json
import os
import time

import pytest

from repro import dist
from repro.analysis.campaign import (
    Campaign,
    CampaignError,
    CampaignResults,
    expand_grid,
)
from repro.dist.worker import WorkerState, handle_request
from repro.spec import RunSpec
from repro.telemetry import log as log_module
from repro.telemetry import tracing
from repro.telemetry.metrics import MetricsRegistry

#: Tiny windows: these tests exercise telemetry, not timing.
N = 400
W = 120


@pytest.fixture(autouse=True)
def clean_telemetry(monkeypatch):
    """Every test starts with the sink off."""
    monkeypatch.delenv(log_module.FILE_ENV, raising=False)
    log_module.reset()
    yield
    log_module.reset()


@pytest.fixture(scope="module")
def points():
    return expand_grid(
        ["gcc"], ["modulo", "general-balance"],
        n_instructions=N, warmup=W,
    )


@pytest.fixture(scope="module")
def serial(points):
    return Campaign(points, backend="serial").run()


def _log_file(tmp_path, monkeypatch):
    """Point the telemetry sink at a fresh JSONL file."""
    path = tmp_path / "events.jsonl"
    monkeypatch.setenv(log_module.FILE_ENV, str(path))
    log_module.reset()
    return path


def _records(path):
    """Every line of a JSONL sink, parsed (a line that is not JSON fails)."""
    return [json.loads(line) for line in path.read_text().splitlines()]


# ----------------------------------------------------------------------
# The sink
# ----------------------------------------------------------------------
class TestSink:
    def test_silent_by_default(self, capfd):
        tracing.start_span("s").end()
        assert capfd.readouterr().err == ""

    def test_file_sink_writes_jsonl_with_session_header(
        self, tmp_path, monkeypatch
    ):
        path = _log_file(tmp_path, monkeypatch)
        record = tracing.start_span("s", answer=42).end()
        lines = _records(path)  # end() wrote the span before returning
        assert [line["event"] for line in lines] == [
            "telemetry.session", "span",
        ]
        assert "python" in lines[0]  # the provenance stamp rode along
        span = lines[1]
        assert {key: span[key] for key in record} == record
        assert {"ts", "mono", "pid", "host"} <= set(span)

    def test_verbose_writes_to_stderr(self, capfd):
        log_module.configure(verbose=True)
        tracing.start_span("s").end()
        lines = capfd.readouterr().err.splitlines()
        assert [json.loads(line)["event"] for line in lines] == [
            "telemetry.session", "span",
        ]

    def test_unwritable_file_falls_back_to_stderr(
        self, tmp_path, monkeypatch, capfd
    ):
        monkeypatch.setenv(
            log_module.FILE_ENV, str(tmp_path / "no-such-dir" / "x.jsonl")
        )
        log_module.reset()
        span = tracing.start_span("s")
        span.end()
        err = capfd.readouterr().err
        assert "telemetry.sink-error" in err
        assert span.span_id in err  # the span still landed

    def test_starts_no_thread(self, tmp_path, monkeypatch):
        import threading

        _log_file(tmp_path, monkeypatch)
        before = threading.active_count()
        for _ in range(3):
            tracing.start_span("s").end()
        assert threading.active_count() == before

    def test_process_backend_log_parses_with_unique_spans(
        self, tmp_path, monkeypatch, serial
    ):
        """Forked pool children share the parent's open sink: every line
        is still one whole record, and no span is written twice."""
        path = _log_file(tmp_path, monkeypatch)
        pts = expand_grid(
            ["gcc", "li"], ["modulo"], n_instructions=N, warmup=W,
        )
        # The sink is open before the fork, as in a CLI run that logs.
        tracing.start_span("before-fork").end()
        Campaign(pts, workers=2, backend="process").run()
        records = _records(path)
        span_ids = [r["span_id"] for r in records if r["event"] == "span"]
        assert len(span_ids) == len(set(span_ids)) == 2
        assert {r["name"] for r in records if r["event"] == "span"} == {
            "before-fork", "campaign",
        }
        sessions = [r for r in records if r["event"] == "telemetry.session"]
        assert len(sessions) == 1


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_counts(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        assert registry.counter("c").value == 5
        assert registry.snapshot()["c"] == {"type": "counter", "value": 5}

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert registry.snapshot() == {}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_child_inherits_trace_and_parent(self):
        root = tracing.start_span("root", label="a")
        child = root.child("kid")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        child.end()
        record = root.end()
        assert record["name"] == "root"
        assert record["attrs"] == {"label": "a"}
        assert record["duration"] >= 0

    def test_context_dict_parents_across_processes(self):
        root = tracing.start_span("root")
        remote = tracing.start_span("remote", parent=root.context())
        assert remote.trace_id == root.trace_id
        assert remote.parent_id == root.span_id

    def test_malformed_parent_context_starts_a_fresh_trace(self):
        span = tracing.start_span("s", parent={"trace_id": 42})
        assert span.parent_id is None
        assert isinstance(span.trace_id, str) and span.trace_id

    def test_activate_sets_the_ambient_span(self):
        assert tracing.current_span() is None
        span = tracing.start_span("s")
        with tracing.activate(span):
            assert tracing.current_span() is span
            assert tracing.current_context() == span.context()
        assert tracing.current_span() is None

    def test_end_is_idempotent(self):
        span = tracing.start_span("s")
        first = span.end()
        time.sleep(0.01)
        assert span.end() == first

    def test_load_spans_dedups_by_span_id(self, tmp_path):
        path = tmp_path / "log.jsonl"
        record = tracing.start_span("s").end(record=False)
        stale = dict(record, duration=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"event": "other"}) + "\n")
            for doc in (stale, record):
                fh.write(json.dumps({"event": "span", **doc}) + "\n")
        spans = tracing.load_spans(str(path))
        assert len(spans) == 1
        assert spans[0]["duration"] == record["duration"]  # last wins

    def test_resolve_trace_id_by_prefix_and_attribute(self):
        span = tracing.start_span("s", job="job-1-7")
        spans = [span.end(record=False)]
        assert tracing.resolve_trace_id(spans, span.trace_id[:6]) == (
            span.trace_id
        )
        assert tracing.resolve_trace_id(spans, "job-1-7") == span.trace_id
        assert tracing.resolve_trace_id(spans, "nope") is None

    def test_check_span_trees_flags_missing_stages(self):
        dispatch = tracing.start_span("dispatch")
        spans = [dispatch.end(record=False)]
        problems = tracing.check_span_trees(spans)
        assert len(problems) == 1 and "batch-run" in problems[0]


# ----------------------------------------------------------------------
# Campaign + worker wiring
# ----------------------------------------------------------------------
class TestCampaignTelemetry:
    def test_serial_campaign_records_per_point_timing(self, points):
        results = Campaign(points, backend="serial").run()
        for run in results:
            assert run.elapsed_seconds > 0
            assert run.timing["simulate_seconds"] > 0
            assert run.timing["resolve_seconds"] >= 0

    def test_timing_round_trips_json_and_csv(self, points, tmp_path):
        results = Campaign(points, backend="serial").run()
        json_path = str(tmp_path / "r.json")
        results.save_json(json_path)
        loaded = CampaignResults.load_json(json_path)
        assert [r.elapsed_seconds for r in loaded] == [
            r.elapsed_seconds for r in results
        ]
        assert loaded[0].timing == results[0].timing
        csv_path = str(tmp_path / "r.csv")
        results.save_csv(csv_path)
        csv_loaded = CampaignResults.load_csv(csv_path)
        assert [r.elapsed_seconds for r in csv_loaded] == [
            r.elapsed_seconds for r in results
        ]

    def test_timing_does_not_affect_equality(self, points, serial):
        again = Campaign(points, backend="serial").run()
        assert list(again) == list(serial)  # timing is compare=False

    def test_memo_hit_carries_only_elapsed_seconds(self, points):
        """A point repeated in one group is simulated once: the executor
        answers the repeat from its memo, timed but with no split."""
        state = WorkerState()
        first, again = dist.run_group(
            [(0, points[0]), (1, points[0])], state
        )
        assert again[:3] == (1, first[1], None)
        assert set(first[3]) == {
            "elapsed_seconds", "resolve_seconds", "simulate_seconds",
        }
        assert set(again[3]) == {"elapsed_seconds"}
        assert state.result_cache_hits == 1

    def test_workload_generation_lands_in_resolve_seconds(
        self, points, monkeypatch
    ):
        """A group generates its workload by name once, inside its first
        point's resolve phase: the cost shows in that point's
        resolve_seconds, and the second point reuses the workload."""
        import repro.workloads as workloads

        delay = 0.2
        generate = workloads.workload

        def slow_workload(*args, **kwargs):
            time.sleep(delay)
            return generate(*args, **kwargs)

        monkeypatch.setattr(workloads, "workload", slow_workload)
        (first, second) = sorted(dist.backend("serial").execute(points))
        assert first[3]["resolve_seconds"] >= delay
        assert first[3]["elapsed_seconds"] >= first[3]["resolve_seconds"]
        assert second[3]["resolve_seconds"] < delay

    def test_pinned_trace_is_replayed_without_generation(
        self, points, serial, monkeypatch
    ):
        """A pinned trace that covers the window serves the point:
        nothing is generated by name inside the resolve phase."""
        import repro.workloads as workloads

        spec = points[0]
        state = WorkerState()
        state.traces[spec.trace_key] = (
            workloads.workload(spec.bench, seed=spec.seed), N + W,
        )

        def no_generation(*args, **kwargs):
            raise AssertionError("workload generated by name")

        monkeypatch.setattr(workloads, "workload", no_generation)
        ((_, result, error, timing),) = dist.run_group([(0, spec)], state)
        assert error is None
        assert result == serial[0].result
        assert set(timing) == {
            "elapsed_seconds", "resolve_seconds", "simulate_seconds",
        }
        assert (state.trace_cache_hits, state.trace_cache_misses) == (1, 0)

    def test_warm_worker_rerun_carries_only_elapsed_seconds(self, points):
        """A re-run on a warm pool is answered from the worker's memo:
        the reply items are timed, with no phase split."""
        pool = dist.WorkerPool()
        try:
            backend = dist.backend("worker", pool=pool)
            first = backend.execute(points)
            again = backend.execute(points)
        finally:
            pool.shutdown()
        assert [entry[1] for entry in again] == [entry[1] for entry in first]
        assert all(
            set(entry[3]) == {
                "elapsed_seconds", "resolve_seconds", "simulate_seconds",
            }
            for entry in first
        )
        assert all(set(entry[3]) == {"elapsed_seconds"} for entry in again)

    @pytest.mark.parametrize("name", ["serial", "process", "worker"])
    def test_phases_fit_inside_elapsed(self, name, points):
        """Every backend reports run_group's own clock: a simulated
        point's resolve and simulate phases lie inside its elapsed
        time (each field is rounded to the microsecond).  The worker
        backend gets a fresh pool: a warm one answers from its memo."""
        pool = dist.WorkerPool()
        options = {"pool": pool} if name == "worker" else {}
        try:
            payload = dist.backend(name, **options).execute(points, jobs=2)
        finally:
            pool.shutdown()
        assert sorted(entry[0] for entry in payload) == [0, 1]
        for _, result, error, timing in payload:
            assert error is None and result is not None
            assert timing["resolve_seconds"] >= 0
            assert timing["simulate_seconds"] > 0
            assert timing["elapsed_seconds"] + 2e-6 >= (
                timing["resolve_seconds"] + timing["simulate_seconds"]
            )

    def test_execute_resolved_returns_the_result_alone(self, points):
        """The facade returns the bare result; timing lives only in
        run_group's payload, with no thread-local side channel."""
        from repro.pipeline import SimResult
        from repro.spec import facade
        from repro.workloads import workload

        spec = points[0]
        result = facade.execute_resolved(
            workload(spec.bench, seed=spec.seed),
            spec.scheme,
            spec.machine.resolve(),
            spec.n_instructions,
            spec.warmup,
            spec.seed,
        )
        assert isinstance(result, SimResult)
        assert result == facade.execute(spec)
        assert not hasattr(facade, "last_timing")

    def test_campaign_error_names_the_trace(self):
        bad = [
            RunSpec(
                "gcc", "no-such-scheme", n_instructions=N, warmup=W
            )
        ]
        with pytest.raises(
            CampaignError, match=r"\[trace [0-9a-f]{16}\]"
        ):
            Campaign(bad, backend="serial").run()

    def test_worker_crash_retry_is_a_child_span(
        self, tmp_path, monkeypatch, points, serial
    ):
        """The retry dispatch span hangs off the failed attempt's span,
        and the whole tree survives the crash intact."""
        path = _log_file(tmp_path, monkeypatch)
        flag = tmp_path / "crash-once"
        flag.write_text("boom")
        monkeypatch.setenv("REPRO_DIST_CRASH_FLAG", str(flag))
        # The pool is created *after* the flag env var is set, so its
        # workers inherit it at spawn time.
        pool = dist.WorkerPool()
        try:
            backend = dist.backend("worker", pool=pool, retries=1)
            results = Campaign(points, workers=1, backend=backend).run()
        finally:
            pool.shutdown()
        assert not flag.exists()  # the crash really happened
        assert list(results) == list(serial)
        assert all(r.elapsed_seconds > 0 for r in results)
        spans = tracing.load_spans(str(path))
        dispatches = [s for s in spans if s["name"] == "dispatch"]
        failed = [s for s in dispatches if s["status"] == "error"]
        assert len(failed) == 1
        retries = [
            s for s in dispatches
            if s.get("parent_id") == failed[0]["span_id"]
        ]
        assert len(retries) == 1
        assert retries[0]["status"] == "ok"
        assert retries[0]["attrs"]["attempt"] == 2
        # Every successful dispatch still has its full batch-run /
        # worker.batch chain under it.
        assert tracing.check_span_trees(spans) == []

    def test_quiet_worker_spans_reach_the_dispatcher_log(
        self, tmp_path, monkeypatch, points, serial
    ):
        """Spans ride the reply: a worker whose own sink is off still
        leaves the whole tree in the dispatcher's log."""
        path = _log_file(tmp_path, monkeypatch)
        pool = dist.WorkerPool(
            ["env", "-u", log_module.FILE_ENV, *dist.stdio_worker_command()]
        )
        try:
            backend = dist.backend("worker", pool=pool)
            results = Campaign(points, backend=backend).run()
        finally:
            pool.shutdown()
        assert list(results) == list(serial)
        sessions = [
            r for r in _records(path) if r["event"] == "telemetry.session"
        ]
        assert [r["pid"] for r in sessions] == [os.getpid()]
        spans = tracing.load_spans(str(path))
        names = {s["name"] for s in spans}
        assert {"campaign", "dispatch", "batch-run", "worker.batch"} <= names
        assert all(
            s["attrs"]["pid"] != os.getpid()
            for s in spans if s["name"] == "worker.batch"
        )
        campaign = next(s for s in spans if s["name"] == "campaign")
        assert all(s["trace_id"] == campaign["trace_id"] for s in spans)
        assert tracing.check_span_trees(spans) == []

    def test_worker_campaign_collects_worker_side_timing(
        self, points, serial
    ):
        pool = dist.WorkerPool()
        try:
            backend = dist.backend("worker", pool=pool)
            results = Campaign(points, workers=2, backend=backend).run()
        finally:
            pool.shutdown()
        assert list(results) == list(serial)
        assert all(r.elapsed_seconds > 0 for r in results)
        assert all(r.timing["simulate_seconds"] > 0 for r in results)


# ----------------------------------------------------------------------
# Reading the sink back: trace show
# ----------------------------------------------------------------------
class TestTraceShow:
    def test_renders_and_checks_a_logged_campaign(
        self, tmp_path, monkeypatch, points, capsys
    ):
        from repro.cli import main

        path = _log_file(tmp_path, monkeypatch)
        Campaign(points, backend="serial").run()
        (campaign,) = tracing.load_spans(str(path))
        token = campaign["trace_id"][:6]
        assert main(["trace", "show", "--log", str(path), token,
                     "--check"]) == 0
        out = capsys.readouterr().out
        assert f"trace {campaign['trace_id']}" in out
        assert "campaign" in out and "backend=serial" in out

    def test_unreadable_log_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "missing.jsonl")
        assert main(["trace", "show", "--log", missing]) == 2
        assert "cannot read trace log" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Mixed old/new protocol peers
# ----------------------------------------------------------------------
class TestMixedPeers:
    def _batch_line(self, points, trace=None):
        request = {
            "id": 1,
            "op": "batch-run",
            "specs": [p.to_dict() for p in points],
        }
        if trace is not None:
            request["trace"] = trace
        return json.dumps(request)

    def test_old_dispatcher_gets_no_spans_field(self, points):
        """A traceless batch-run (an old dispatcher) is served, and the
        reply shape is what protocol v2 always promised — no spans."""
        reply, keep = handle_request(
            self._batch_line(points[:1]), WorkerState()
        )
        assert keep and reply["ok"]
        assert "spans" not in reply
        item = reply["results"][0]
        assert item["ok"]
        assert item["elapsed_seconds"] > 0  # timing is an additive field

    def test_new_dispatcher_gets_the_worker_span(self, points):
        ctx = tracing.start_span("dispatch").context()
        reply, _ = handle_request(
            self._batch_line(points[:1], trace=ctx), WorkerState()
        )
        assert reply["ok"]
        (record,) = reply["spans"]
        assert record["name"] == "worker.batch"
        assert record["trace_id"] == ctx["trace_id"]
        assert record["parent_id"] == ctx["span_id"]

    def test_malformed_peer_span_records_are_ignored(
        self, tmp_path, monkeypatch
    ):
        """Junk a peer might ship in a spans field is dropped, never
        raised on (old peers may send shapes we have never seen)."""
        path = _log_file(tmp_path, monkeypatch)
        tracing.record_span(None)
        tracing.record_span("junk")
        tracing.record_span({"name": "x"})  # no span_id
        assert not path.exists()  # nothing reached the sink
        good = tracing.start_span("s")
        tracing.record_span(good.end(record=False))
        assert [r["event"] for r in _records(path)] == [
            "telemetry.session", "span",
        ]

    def test_old_peer_trace_context_is_tolerated(self, points):
        """A garbage trace field degrades to a fresh trace, and the
        batch still runs."""
        reply, _ = handle_request(
            self._batch_line(points[:1], trace={"weird": True}),
            WorkerState(),
        )
        assert reply["ok"]
        (record,) = reply["spans"]
        assert record["name"] == "worker.batch"
        assert "parent_id" not in record
