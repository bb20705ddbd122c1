"""Tests for repro.dist: registry, worker protocol, fault tolerance."""

import io
import json
import sys
import threading
import time

import pytest

import repro
from repro import dist
from repro.analysis.campaign import (
    Campaign,
    CampaignError,
    expand_grid,
    run_campaign,
)
from repro.dist.worker import _TaskBoard
from repro.errors import ConfigError, DistError
from repro.pipeline import SimResult
from repro.spec import RunSpec

#: Tiny windows: these tests exercise dispatch, not timing.
N = 400
W = 120


@pytest.fixture(scope="module")
def points():
    return expand_grid(
        ["gcc", "li"], ["modulo", "general-balance"],
        n_instructions=N, warmup=W,
    )


@pytest.fixture(scope="module")
def serial(points):
    return Campaign(points, backend="serial").run()


def _assert_identical(results, serial):
    assert [(r.point, r.result) for r in results] == [
        (r.point, r.result) for r in serial
    ]


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = dist.available_backends()
        for name in ("serial", "process", "worker"):
            assert name in names

    def test_backends_json_lists_exactly_the_builtins(self, capsys):
        from repro.cli import main

        assert main(["dist", "backends", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in listed} == {
            "serial", "process", "worker",
        }

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ConfigError, match="serial"):
            dist.backend("quantum-annealer")

    def test_descriptions_exist(self):
        for name in dist.available_backends():
            assert dist.backend_description(name)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            dist.register_backend(
                "serial", dist.SerialBackend, "duplicate"
            )

    def test_non_string_backend_name_rejected(self):
        with pytest.raises(ConfigError):
            dist.backend(123)

    def test_campaign_accepts_backend_instance(self, points, serial):
        results = Campaign(points, backend=dist.SerialBackend()).run()
        assert [r.result for r in results] == [r.result for r in serial]


class TestJobsValidation:
    def test_integers_and_integer_strings_pass(self):
        assert dist.coerce_jobs(4) == 4
        assert dist.coerce_jobs("4") == 4

    @pytest.mark.parametrize("bad", ["lots", "", "2.5", 0, -2, 2.5, True, None])
    def test_bad_values_raise_config_error(self, bad):
        with pytest.raises(ConfigError, match="positive integer"):
            dist.coerce_jobs(bad)

    def test_error_names_the_source(self):
        with pytest.raises(ConfigError, match="REPRO_BENCH_JOBS"):
            dist.coerce_jobs(
                "many", source="environment variable REPRO_BENCH_JOBS"
            )

    def test_jobs_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_JOBS", "3")
        assert dist.jobs_from_env("REPRO_TEST_JOBS") == 3
        monkeypatch.delenv("REPRO_TEST_JOBS")
        assert dist.jobs_from_env("REPRO_TEST_JOBS", default=2) == 2
        monkeypatch.setenv("REPRO_TEST_JOBS", "zero")
        with pytest.raises(ConfigError, match="REPRO_TEST_JOBS"):
            dist.jobs_from_env("REPRO_TEST_JOBS")

    def test_campaign_rejects_non_positive_workers(self, points):
        with pytest.raises(ConfigError, match="positive integer"):
            Campaign(points, workers=0).run()

    def test_campaign_accepts_integer_string_workers(self, points, serial):
        """An env-sourced "2" must work end to end, not TypeError in
        effective_workers after passing validation."""
        results = Campaign(points, workers="2").run()
        assert [r.result for r in results] == [r.result for r in serial]

    def test_run_campaign_rejects_bad_workers(self, points):
        with pytest.raises(ConfigError, match="positive integer"):
            run_campaign(points, workers=-1)


class TestKnobValidation:
    def test_timeout_accepts_numbers_and_none_spellings(self):
        assert dist.backends.coerce_timeout(None) is None
        assert dist.backends.coerce_timeout("none") is None
        assert dist.backends.coerce_timeout("inf") is None
        assert dist.backends.coerce_timeout("2.5") == 2.5
        assert dist.backends.coerce_timeout(30) == 30.0

    @pytest.mark.parametrize("bad", ["soon", 0, -1, "-2.5", True, []])
    def test_bad_timeout_raises_config_error(self, bad):
        with pytest.raises(ConfigError, match="positive number"):
            dist.backends.coerce_timeout(bad)

    def test_retries_accepts_zero(self):
        assert dist.backends.coerce_retries(0) == 0
        assert dist.backends.coerce_retries("3") == 3

    @pytest.mark.parametrize("bad", ["many", -1, 2.5, True, None])
    def test_bad_retries_raises_config_error(self, bad):
        with pytest.raises(ConfigError, match="non-negative integer"):
            dist.backends.coerce_retries(bad)

    def test_env_knobs_reach_worker_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_DIST_RETRIES", "4")
        backend = dist.WorkerBackend()
        assert backend.timeout == 12.5
        assert backend.retries == 4

    def test_bad_env_knob_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_TIMEOUT", "soon")
        with pytest.raises(ConfigError, match="REPRO_DIST_TIMEOUT"):
            dist.WorkerBackend()

    def test_explicit_arguments_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_TIMEOUT", "12.5")
        assert dist.WorkerBackend(timeout=None).timeout is None
        assert dist.WorkerBackend(timeout=3).timeout == 3.0

    def test_cli_rejects_bad_dist_timeout(self, points):
        from repro.cli import main

        code = main([
            "campaign", "-b", "gcc", "-s", "modulo",
            "--backend", "worker", "--dist-timeout", "soon",
        ])
        assert code == 2

    def test_cli_rejects_dist_flags_without_matching_backend(self):
        from repro.cli import main

        code = main([
            "campaign", "-b", "gcc", "-s", "modulo",
            "--backend", "serial", "--dist-timeout", "5",
        ])
        assert code == 2


def _serve(*lines):
    """Run the worker loop over scripted input; return the replies."""
    stdout = io.StringIO()
    dist.serve_stdio(
        io.StringIO("".join(line + "\n" for line in lines)), stdout
    )
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def _batch_request(request_id, point):
    """A one-spec ``batch-run`` request line for *point*."""
    return json.dumps({
        "id": request_id, "op": "batch-run",
        "specs": [point.to_dict()],
    })


class TestWorkerProtocol:
    def test_ping(self):
        (reply,) = _serve(json.dumps({"id": 1, "op": "ping"}))
        assert reply == {
            "id": 1, "ok": True, "protocol": dist.PROTOCOL_VERSION,
        }

    def test_run_request_matches_direct_execution(self):
        point = RunSpec("gcc", "modulo", n_instructions=N, warmup=W)
        (reply,) = _serve(_batch_request(7, point))
        assert reply["ok"] and reply["id"] == 7
        (item,) = reply["results"]
        assert item["ok"]
        assert SimResult.from_dict(item["result"]) == repro.run(point)

    def test_malformed_json_gets_error_reply_and_serving_continues(self):
        replies = _serve("{not json", json.dumps({"id": 2, "op": "ping"}))
        assert len(replies) == 2
        assert replies[0]["ok"] is False and "error" in replies[0]
        assert replies[1] == {
            "id": 2, "ok": True, "protocol": dist.PROTOCOL_VERSION,
        }

    def test_unknown_op_and_missing_spec_are_errors(self):
        replies = _serve(
            json.dumps({"id": 1, "op": "teleport"}),
            json.dumps({"id": 2, "op": "batch-run"}),
            json.dumps([1, 2, 3]),
        )
        assert [r["ok"] for r in replies] == [False, False, False]
        assert "teleport" in replies[0]["error"]
        assert "specs" in replies[1]["error"]

    def test_bad_point_is_an_error_reply_not_a_crash(self):
        point = RunSpec(
            "gcc", "no-such-scheme", n_instructions=N, warmup=W
        )
        replies = _serve(
            _batch_request(1, point),
            json.dumps({"id": 2, "op": "ping"}),
        )
        (item,) = replies[0]["results"]
        assert item["ok"] is False
        assert "no-such-scheme" in item["error"]
        assert replies[1]["ok"] is True

    def test_malformed_spec_fails_alone_in_its_batch(self):
        good = RunSpec("gcc", "modulo", n_instructions=N, warmup=W)
        (reply,) = _serve(json.dumps({
            "id": 1, "op": "batch-run",
            "specs": [good.to_dict(), {"scheme": "modulo"}, good.to_dict()],
        }))
        first, bad, again = reply["results"]
        assert first["ok"] and again["ok"]
        assert again["result"] == first["result"]
        assert bad["ok"] is False and "bench" in bad["error"]

    def test_shutdown_stops_serving(self):
        replies = _serve(
            json.dumps({"id": 1, "op": "shutdown"}),
            json.dumps({"id": 2, "op": "ping"}),  # never reached
        )
        assert replies == [{"id": 1, "ok": True, "bye": True}]


def _entries_by_backend(name, points, tmp_path):
    """The payload of *points* run the way backend *name* runs them;
    a job directory's merged runs stand in for its payload."""
    if name in ("serial", "process"):
        return dist.backend(name).execute(points, jobs=2)
    if name == "worker":
        pool = dist.WorkerPool()
        try:
            return dist.backend("worker", pool=pool).execute(points)
        finally:
            pool.shutdown()
    job_dir = str(tmp_path / "job")
    dist.package_job(points, job_dir)
    dist.run_worker(job_dir, worker_id="w")
    merged = dist.merge_job(job_dir, allow_partial=True)
    return [
        (i, run.result, None,
         {"elapsed_seconds": run.elapsed_seconds, **(run.timing or {})})
        for i, run in merged.runs.items()
    ] + [(i, None, error, None) for i, error in merged.failures.items()]


class TestOneExecutor:
    """Serial, process, protocol and job-directory workers all run a
    point through ``run_group``, so their payloads agree in full."""

    GRID = [
        RunSpec("gcc", "modulo", n_instructions=N, warmup=W),
        RunSpec("gcc", "general-balance", n_instructions=N, warmup=W),
        RunSpec("gcc", "no-such-scheme", n_instructions=N, warmup=W),
        RunSpec("li", "modulo", n_instructions=N, warmup=W),
        RunSpec("gcc", "modulo", n_instructions=N, warmup=W),  # repeat
    ]

    @staticmethod
    def _normalised(payload):
        return sorted(
            (
                index,
                result,
                error.strip().splitlines()[-1] if error else None,
                sorted(timing) if timing is not None else None,
            )
            for index, result, error, timing in payload
        )

    @pytest.fixture(scope="class")
    def reference(self):
        return self._normalised(dist.run_group(enumerate(self.GRID)))

    def test_reference_shape(self, reference):
        full = ["elapsed_seconds", "resolve_seconds", "simulate_seconds"]
        assert [entry[0] for entry in reference] == list(range(5))
        assert reference[2][1] is None and reference[2][3] is None
        assert "no-such-scheme" in reference[2][2]
        assert reference[0][3] == full
        # The repeated point comes from the memo: same result, no split.
        assert reference[4][1] == reference[0][1]
        assert reference[4][3] == ["elapsed_seconds"]

    @pytest.mark.parametrize(
        "name", ["serial", "process", "worker", "job-directory"]
    )
    def test_payload_matches_across_backends(
        self, name, reference, tmp_path
    ):
        payload = _entries_by_backend(name, self.GRID, tmp_path)
        assert all(len(entry) == 4 for entry in payload)
        assert self._normalised(payload) == reference


class TestWorkerBackend:
    def test_identical_to_serial(self, points, serial):
        """Acceptance: run_campaign(backend="worker", jobs=2) is
        point-for-point identical to the serial backend."""
        run = run_campaign(points, workers=2, backend="worker")
        assert [(r.point, r.result) for r in run.results] == [
            (r.point, r.result) for r in serial
        ]

    def test_point_failure_surfaces_as_campaign_error(self):
        bad = [
            RunSpec("gcc", "modulo", n_instructions=N, warmup=W),
            RunSpec(
                "gcc", "no-such-scheme", n_instructions=N, warmup=W
            ),
        ]
        with pytest.raises(CampaignError) as info:
            Campaign(bad, workers=1, backend="worker").run()
        assert len(info.value.failures) == 1
        assert info.value.failures[0][0].scheme == "no-such-scheme"

    def test_worker_crash_mid_point_is_retried(
        self, tmp_path, monkeypatch, serial
    ):
        """A worker that dies before replying loses the point to a
        retry on a fresh worker; the campaign still matches serial."""
        flag = tmp_path / "crash-once"
        flag.write_text("boom")
        monkeypatch.setenv("REPRO_DIST_CRASH_FLAG", str(flag))
        pts = expand_grid(
            ["gcc"], ["modulo", "general-balance"],
            n_instructions=N, warmup=W,
        )
        # A fresh pool: the flag env var must be in the workers'
        # spawn-time environment, which a pre-existing warm pool's
        # workers would not have.
        pool = dist.WorkerPool()
        try:
            backend = dist.backend("worker", pool=pool)
            results = Campaign(pts, workers=1, backend=backend).run()
        finally:
            pool.shutdown()
        assert not flag.exists()  # the crash really happened
        expected = {
            (r.point.bench, r.point.scheme): r.result for r in serial
        }
        for r in results:
            assert r.result == expected[(r.point.bench, r.point.scheme)]

    def test_hung_worker_times_out_and_point_is_retried(
        self, tmp_path, monkeypatch
    ):
        flag = tmp_path / "hang-once"
        flag.write_text("zzz")
        monkeypatch.setenv("REPRO_DIST_HANG_FLAG", str(flag))
        monkeypatch.setenv("REPRO_DIST_HANG_SECONDS", "60")
        pts = [RunSpec("li", "modulo", n_instructions=N, warmup=W)]
        # Generous vs normal point latency (worker start + import is
        # ~2s), small enough to keep the test quick.
        pool = dist.WorkerPool()
        try:
            backend = dist.backend(
                "worker", timeout=8, retries=1, pool=pool
            )
            results = Campaign(pts, backend=backend).run()
        finally:
            pool.shutdown()
        assert not flag.exists()
        assert results[0].result == repro.run(pts[0])

    def test_retries_exhausted_reports_the_failure(self):
        """A command that always dies consumes every retry, then the
        point fails with a message saying how many attempts were made."""
        backend = dist.backend(
            "worker",
            retries=1,
            command=[
                sys.executable,
                "-c",
                "import sys; sys.stdin.readline(); sys.exit(3)",
            ],
        )
        pts = [RunSpec("gcc", "modulo", n_instructions=N, warmup=W)]
        with pytest.raises(CampaignError, match="2 attempt"):
            Campaign(pts, backend=backend).run()


def _rtrace_payload(bench="gcc", seed=0, records=N + W):
    """Base64 .rtrace bytes + the preload request fields for them."""
    import base64

    from repro.scenarios import export_trace_bytes
    from repro.workloads import workload

    data, _ = export_trace_bytes(workload(bench, seed=seed), records)
    return {
        "bench": bench,
        "seed": seed,
        "records": records,
        "rtrace": base64.b64encode(data).decode("ascii"),
    }


class TestProtocolV2:
    def test_preload_then_batch_run_matches_serial(self):
        pts = [
            RunSpec("gcc", "modulo", n_instructions=N, warmup=W),
            RunSpec(
                "gcc", "general-balance", n_instructions=N, warmup=W
            ),
        ]
        replies = _serve(
            json.dumps({"id": 1, "op": "preload", **_rtrace_payload()}),
            json.dumps({
                "id": 2,
                "op": "batch-run",
                "specs": [p.to_dict() for p in pts],
            }),
            json.dumps({"id": 3, "op": "stats"}),
        )
        preload, batch, stats = replies
        assert preload["ok"] and preload["records"] == N + W
        assert batch["ok"] and len(batch["results"]) == 2
        for point, item in zip(pts, batch["results"]):
            assert item["ok"]
            assert SimResult.from_dict(item["result"]) == repro.run(point)
        # Both points executed against the pinned FrozenTrace.
        assert stats["preloaded_traces"] == 1
        assert stats["trace_cache_hits"] == 2
        assert stats["trace_cache_misses"] == 0
        assert stats["points_served"] == 2
        assert stats["batches"] == 1

    def test_preload_rejects_corrupt_payload(self):
        """A bit-flipped record column fails the CRC and pins nothing."""
        import base64
        import json as json_module
        import zlib

        from repro.scenarios.rtrace import MAGIC

        payload = _rtrace_payload()
        raw = base64.b64decode(payload["rtrace"])
        doc = json_module.loads(zlib.decompress(raw[len(MAGIC):]))
        doc["records"]["taken"][0] ^= 1
        corrupt = MAGIC + zlib.compress(
            json_module.dumps(doc).encode("utf-8")
        )
        payload["rtrace"] = base64.b64encode(corrupt).decode("ascii")
        point = RunSpec("gcc", "modulo", n_instructions=N, warmup=W)
        replies = _serve(
            json.dumps({"id": 1, "op": "preload", **payload}),
            json.dumps({"id": 2, "op": "stats"}),
            _batch_request(3, point),
        )
        assert replies[0]["ok"] is False
        assert "checksum" in replies[0]["error"]
        assert replies[1]["preloaded_traces"] == 0
        # The worker still serves — by-name resolution, a cache miss.
        assert replies[2]["results"][0]["ok"] is True

    def test_preload_round_trips_through_disk_format(self, tmp_path):
        """preload bytes == export_trace file contents, verbatim."""
        import base64

        from repro.scenarios import export_trace
        from repro.workloads import workload

        payload = _rtrace_payload(records=600)
        path = tmp_path / "gcc.rtrace"
        export_trace(workload("gcc", seed=0), str(path), 600)
        assert base64.b64decode(payload["rtrace"]) == path.read_bytes()

    def test_batch_run_isolates_bad_points(self):
        good = RunSpec("gcc", "modulo", n_instructions=N, warmup=W)
        bad = RunSpec(
            "gcc", "no-such-scheme", n_instructions=N, warmup=W
        )
        (reply,) = _serve(
            json.dumps({
                "id": 1,
                "op": "batch-run",
                "specs": [good.to_dict(), bad.to_dict()],
            })
        )
        assert reply["ok"]
        first, second = reply["results"]
        assert first["ok"]
        assert second["ok"] is False
        assert "no-such-scheme" in second["error"]

    def test_missing_preload_fields_are_an_error_reply(self):
        (reply,) = _serve(json.dumps({"id": 1, "op": "preload"}))
        assert reply["ok"] is False
        assert "bench" in reply["error"]


class TestTaskBoard:
    """Chunk hand-out order, with no dispatcher threads involved."""

    def test_slot_keeps_its_first_chunk_until_its_thread_starts(self):
        board = _TaskBoard(2)
        board.put(0, "a")
        board.put(1, "b1")
        board.put(1, "b2")
        assert board.take(0) == "a"
        assert board.take(0) is None  # slot 1 has not started: no steal
        assert board.take(1) == "b1"
        assert board.take(0) == "b2"  # slot 1 started: open to stealing
        assert board.take(1) is None

    def test_retire_hands_a_slots_chunks_to_a_running_slot(self):
        board = _TaskBoard(3)
        assert board.take(1) is None  # slot 1's thread has stopped
        board.put(0, "a1")
        board.put(0, "a2")
        assert board.take(0) == "a1"
        # Slot 0's worker is unreachable: slot 2 inherits both chunks.
        assert board.retire(0, "a1")
        assert board.take(2) == "a1"
        assert board.take(2) == "a2"
        # The last running slot keeps its chunk.
        assert not board.retire(2, "b")


def _dead_address():
    """A ``HOST:PORT`` nothing listens on: bound, then closed."""
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    address = dist.format_address(sock.getsockname()[:2])
    sock.close()
    return address


class TestUnreachableSlots:
    def test_unreachable_fleet_fails_every_point(self):
        pts = expand_grid(
            ["gcc", "li"], ["modulo"], n_instructions=N, warmup=W
        )
        backend = dist.WorkerBackend(remote=[_dead_address()], retries=1)
        start = time.monotonic()
        payload = backend.execute(pts, jobs=1)
        assert time.monotonic() - start < 30
        assert sorted(index for index, *_ in payload) == [0, 1]
        for _, result, error, *_ in payload:
            assert result is None
            assert "worker failed after 2 attempt(s)" in error

    def test_dead_remote_slot_beside_a_local_one_matches_serial(
        self, points, serial
    ):
        pool = dist.WorkerPool(remote=[_dead_address()])
        try:
            backend = dist.WorkerBackend(pool=pool, retries=1)
            results = Campaign(points, workers=2, backend=backend).run()
        finally:
            pool.shutdown()
        assert [(r.point, r.result) for r in results] == [
            (r.point, r.result) for r in serial
        ]


def _listen_thread():
    """One in-process listen-mode worker: ``(address, thread)``."""
    out = io.StringIO()
    thread = threading.Thread(
        target=dist.serve_listen, args=("127.0.0.1:0", out), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10
    while "\n" not in out.getvalue():
        assert time.monotonic() < deadline, "worker never announced"
        time.sleep(0.01)
    return out.getvalue().split()[-1], thread


class TestListenWorkers:
    def _listen_worker(self):
        """One in-process listen-mode worker; returns its address."""
        return _listen_thread()[0]

    def test_pool_adopts_remote_worker_directly(self, points, serial):
        """WorkerBackend with a remote pool: the listen worker serves it."""
        address = self._listen_worker()
        pool = dist.WorkerPool(remote=[address])
        try:
            backend = dist.WorkerBackend(pool=pool)
            results = Campaign(points, backend=backend).run()
            stats = pool.stats()
        finally:
            pool.shutdown(stop_remote=True)
        _assert_identical(results, serial)
        assert stats["connects_total"] == 1
        assert stats["spawned_total"] == 0
        assert stats["workers"][0]["transport"] == "socket"

    def test_remote_fleet_identical_to_serial(self, points, serial):
        """Two listen workers, no local one: each slot is a socket."""
        addresses = [self._listen_worker(), self._listen_worker()]
        pool = dist.WorkerPool(remote=addresses)
        try:
            backend = dist.WorkerBackend(pool=pool)
            results = Campaign(points, workers=2, backend=backend).run()
            stats = pool.stats()
        finally:
            pool.shutdown(stop_remote=True)
        _assert_identical(results, serial)
        assert stats["spawned_total"] == 0
        assert stats["connects_total"] == 2
        assert sorted(w["address"] for w in stats["workers"]) == sorted(
            addresses
        )
        assert all(w["transport"] == "socket" for w in stats["workers"])
        assert stats["points_served"] == len(points)

    def test_backend_by_name_adopts_remote_workers(self, points, serial):
        """``dist.backend("worker", remote=[...])`` serves through the
        shared pool for that fleet, which connects instead of spawning."""
        address = self._listen_worker()
        pool = dist.shared_pool(remote=[address])
        try:
            backend = dist.backend("worker", remote=[address])
            results = Campaign(points, backend=backend).run()
            stats = pool.stats()
        finally:
            pool.shutdown(stop_remote=True)
        _assert_identical(results, serial)
        assert stats["remote_addresses"] == [address]
        assert stats["connects_total"] == 1
        assert stats["spawned_total"] == 0

    def test_mixed_fleet_puts_remote_slots_first(self, points, serial):
        """Slots up to the remote count connect; the rest spawn."""
        address = self._listen_worker()
        pool = dist.WorkerPool(remote=[address])
        try:
            backend = dist.WorkerBackend(pool=pool)
            results = Campaign(points, workers=2, backend=backend).run()
            stats = pool.stats()
        finally:
            pool.shutdown(stop_remote=True)
        _assert_identical(results, serial)
        assert (stats["connects_total"], stats["spawned_total"]) == (1, 1)
        first, second = stats["workers"]
        assert (first["transport"], first["address"]) == ("socket", address)
        assert second["transport"] == "stdio"

    def test_listen_worker_keeps_its_memo_across_dispatchers(
        self, points, serial
    ):
        """A worker outlives the pool that borrowed it: the next
        dispatcher's identical campaign comes from the worker's memo."""
        address = self._listen_worker()
        first = dist.WorkerPool(remote=[address])
        try:
            Campaign(points, backend=dist.WorkerBackend(pool=first)).run()
        finally:
            first.shutdown()
        second = dist.WorkerPool(remote=[address])
        try:
            results = Campaign(
                points, backend=dist.WorkerBackend(pool=second)
            ).run()
            stats = second.stats()
        finally:
            second.shutdown(stop_remote=True)
        _assert_identical(results, serial)
        (worker,) = stats["workers"]
        assert worker["result_cache_hits"] == len(points)
        assert worker["points_served"] == 2 * len(points)

    def test_only_stop_remote_ends_the_listen_loop(self):
        """``shutdown()`` hands a borrowed worker back still listening;
        ``shutdown(stop_remote=True)`` ends its accept loop."""
        address, thread = _listen_thread()
        borrower = dist.WorkerPool(remote=[address])
        borrower.ensure(1)
        borrower.shutdown()
        thread.join(timeout=0.5)
        assert thread.is_alive()
        owner = dist.WorkerPool(remote=[address])
        owner.ensure(1)
        assert owner.size == 1
        owner.shutdown(stop_remote=True)
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_timed_out_remote_worker_is_reconnected(self, tmp_path,
                                                    monkeypatch):
        """A remote worker that hangs past the timeout loses its
        connection, not its slot: the retry reconnects to the same
        worker, whose memo already holds the point it finished late."""
        address = self._listen_worker()
        flag = tmp_path / "hang-once"
        flag.write_text("zzz")
        # The in-process listen worker reads these when serving.
        monkeypatch.setenv("REPRO_DIST_HANG_FLAG", str(flag))
        monkeypatch.setenv("REPRO_DIST_HANG_SECONDS", "2.5")
        pts = [RunSpec("li", "modulo", n_instructions=N, warmup=W)]
        pool = dist.WorkerPool(remote=[address])
        try:
            backend = dist.WorkerBackend(pool=pool, timeout=2, retries=1)
            results = Campaign(pts, backend=backend).run()
            stats = pool.stats()
        finally:
            pool.shutdown(stop_remote=True)
        assert not flag.exists()
        assert results[0].result == repro.run(pts[0])
        assert stats["connects_total"] == 2
        assert stats["workers"][0]["result_cache_hits"] == 1

    def test_crashing_listen_worker_is_retried_on_its_peer(
        self, listen_process, tmp_path
    ):
        """A listen worker that dies mid-batch cannot be reconnected:
        its slot retires and the surviving peer runs the retried chunk."""
        from repro.telemetry import metrics
        from repro.workloads import SPECINT95

        pts = expand_grid(
            sorted(SPECINT95), ["modulo"], n_instructions=N, warmup=W
        )
        expected = [r.result for r in Campaign(pts, backend="serial").run()]
        flag = tmp_path / "crash-once"
        flag.write_text("boom")
        crashing, first = listen_process(REPRO_DIST_CRASH_FLAG=str(flag))
        healthy, second = listen_process()
        retries = metrics.counter("dispatch.retries_total").value
        pool = dist.WorkerPool(remote=[first, second])
        try:
            backend = dist.WorkerBackend(pool=pool, retries=1)
            results = Campaign(pts, workers=2, backend=backend).run()
        finally:
            pool.shutdown(stop_remote=True)
        assert [r.result for r in results] == expected
        assert not flag.exists()  # the crash really happened
        assert crashing.wait(timeout=10) == 3
        assert healthy.wait(timeout=10) == 0
        assert metrics.counter("dispatch.retries_total").value > retries

    def test_retry_skips_a_listener_that_accepts_but_never_answers(self):
        """A dying listener may still accept the retry's reconnect and
        then drop it.  The retry pings first, so the chunk goes to the
        peer instead of spending its last attempt on the dead slot."""
        import socket

        from repro.workloads import SPECINT95

        pts = expand_grid(
            sorted(SPECINT95), ["modulo"], n_instructions=N, warmup=W
        )
        expected = [r.result for r in Campaign(pts, backend="serial").run()]
        dying = socket.socket()
        dying.bind(("127.0.0.1", 0))
        dying.listen(8)

        def drop_every_connection():
            while True:
                try:
                    conn, _ = dying.accept()
                except OSError:
                    return
                conn.close()

        threading.Thread(target=drop_every_connection, daemon=True).start()
        first = dist.format_address(dying.getsockname()[:2])
        second, thread = _listen_thread()
        pool = dist.WorkerPool(remote=[first, second])
        try:
            backend = dist.WorkerBackend(pool=pool, retries=1)
            results = Campaign(pts, workers=2, backend=backend).run()
        finally:
            pool.shutdown(stop_remote=True)
            dying.close()
        assert [r.result for r in results] == expected
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_unreachable_remote_slot_stays_in_stats(self):
        address = _dead_address()
        pool = dist.WorkerPool(remote=[address])
        try:
            pool.ensure(1)  # best-effort for remote slots: no raise
            stats = pool.stats()
        finally:
            pool.shutdown()
        assert stats["size"] == 0
        assert stats["workers"] == [
            {"transport": "socket", "address": address, "alive": False}
        ]

    @pytest.mark.parametrize(
        "make",
        [
            lambda remote: dist.WorkerPool(remote=remote),
            lambda remote: dist.WorkerBackend(remote=remote),
            lambda remote: dist.backend("worker", remote=remote),
        ],
        ids=["pool", "backend", "backend-by-name"],
    )
    def test_bad_remote_address_raises_config_error(self, make):
        with pytest.raises(ConfigError, match="remote worker address"):
            make(["127.0.0.1:1", "nope"])

    def test_listen_worker_answers_ping_over_the_socket(self):
        from repro.dist.transport import LineChannel

        address, thread = _listen_thread()
        channel = LineChannel(dist.SocketTransport(address))
        try:
            reply = channel.request("ping", timeout=10)
            assert reply["ok"]
            assert reply["protocol"] == dist.PROTOCOL_VERSION
            assert channel.request("shutdown", timeout=10)["bye"]
        finally:
            channel.close()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_dispatcher_vanishing_mid_batch_leaves_worker_serving(self):
        """A dispatcher that sends a batch and disconnects before the
        reply costs the worker nothing: the next dispatcher is served,
        and the abandoned batch's result waits in the memo."""
        import socket

        address, thread = _listen_thread()
        point = RunSpec("gcc", "modulo", n_instructions=N, warmup=W)
        conn = socket.create_connection(dist.parse_address(address))
        conn.sendall((_batch_request(1, point) + "\n").encode("utf-8"))
        conn.close()
        pool = dist.WorkerPool(remote=[address])
        try:
            results = Campaign(
                [point], backend=dist.WorkerBackend(pool=pool)
            ).run()
            stats = pool.stats()
        finally:
            pool.shutdown(stop_remote=True)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert results[0].result == repro.run(point)
        assert stats["workers"][0]["result_cache_hits"] == 1


class TestPayloadRelease:
    """The dispatcher-side trace payload cache holds only campaigns in
    flight (``perfbench`` reads ``trace_payloads`` from these stats)."""

    KEY = ("gcc", 0)

    def test_finished_campaigns_release_their_payloads(self):
        pool = dist.WorkerPool()
        backend = dist.WorkerBackend(pool=pool)
        try:
            for seed in (1, 2, 3):
                grid = expand_grid(
                    ["gcc", "li"], ["modulo"], seeds=(seed,),
                    n_instructions=N, warmup=W,
                )
                Campaign(grid, backend=backend).run()
                assert pool.stats()["payloads_cached"] == 0
            assert pool.stats()["trace_payloads"] == 6
        finally:
            pool.shutdown()

    def test_release_drops_only_the_named_groups(self):
        pool = dist.WorkerPool()
        pool.trace_payload(self.KEY, N + W)
        pool.trace_payload(("li", 0), N + W)
        pool.release_payloads([self.KEY, ("never", 9)])
        assert set(pool._payloads) == {("li", 0)}
        pool.release_payloads([("li", 0)])
        assert pool.stats()["payloads_cached"] == 0

    def test_payload_exported_once_until_outgrown_or_released(self):
        pool = dist.WorkerPool()
        records, encoded = pool.trace_payload(self.KEY, N + W)
        assert records == N + W and encoded
        assert pool.trace_payload(self.KEY, N) == (records, encoded)
        assert pool.payloads_built == 1
        # A longer window re-exports; the shorter cached one cannot serve.
        assert pool.trace_payload(self.KEY, 2 * (N + W))[0] == 2 * (N + W)
        assert pool.payloads_built == 2
        pool.release_payloads([self.KEY])
        pool.trace_payload(self.KEY, N)
        assert pool.payloads_built == 3

    def test_failed_export_is_cached_as_by_name_resolution(self):
        pool = dist.WorkerPool()
        assert pool.trace_payload(("no-such-bench", 0), N) is None
        assert pool.trace_payload(("no-such-bench", 0), N) is None
        assert pool.payloads_built == 1

    def test_local_workers_report_stdio_transport_and_pid(self):
        pool = dist.WorkerPool()
        try:
            pool.ensure(1)
            (worker,) = pool.stats()["workers"]
        finally:
            pool.shutdown()
        assert worker["transport"] == "stdio"
        assert worker["address"] == f"pid:{worker['pid']}"


class TestPoolStatusCli:
    """``dist pool status --worker`` reports adopted listen workers."""

    def test_reports_a_remote_worker(self, tmp_path, capsys):
        from repro.cli import main

        address, thread = _listen_thread()
        stats_file = tmp_path / "pool.json"
        try:
            assert main([
                "dist", "pool", "status", "--worker", address,
                "--json", str(stats_file),
            ]) == 0
        finally:
            dist.shared_pool(remote=[address]).shutdown(stop_remote=True)
        out = capsys.readouterr().out
        assert f"socket {address}: 0 point(s)" in out
        stats = json.loads(stats_file.read_text())
        assert stats["connects_total"] == 1 and stats["spawned_total"] == 0
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_marks_an_unreachable_worker(self, capsys):
        from repro.cli import main

        address = _dead_address()
        try:
            assert main([
                "dist", "pool", "status", "--worker", address,
            ]) == 0
        finally:
            dist.shared_pool(remote=[address]).shutdown()
        assert f"socket {address}: unreachable" in capsys.readouterr().out


class TestRemovedSurfaces:
    """Removed command lines (the daemon's, `pool status` without a
    worker or with `-j`): argparse rejects them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "serve"],
            ["dist", "serve", "status"],
            ["dist", "serve", "stop"],
            ["telemetry", "dump"],
            ["campaign", "-b", "gcc", "-s", "modulo",
             "--service-address", "127.0.0.1:1"],
            ["suite", "run", "smoke", "--service-address", "127.0.0.1:1"],
            ["dist", "pool", "status"],
            ["dist", "pool", "status", "-j", "2"],
        ],
        ids=[
            "dist-serve", "dist-serve-status", "dist-serve-stop",
            "telemetry-dump", "campaign-service-address",
            "suite-run-service-address", "pool-status-without-worker",
            "pool-status-jobs",
        ],
    )
    def test_argv_is_a_usage_error(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["campaign", "-b", "gcc", "-s", "modulo", "--backend",
              "service"], "unknown execution backend 'service'"),
            (["dist", "pool", "status", "--worker", "nope"],
             "must look like HOST:PORT, got 'nope'"),
        ],
        ids=["campaign-service-backend", "pool-status-bad-address"],
    )
    def test_config_error_is_one_line_and_exit_2(self, argv, message, capsys):
        """A ConfigError the parser cannot catch ends the command with its
        message on stderr and status 2, not a traceback."""
        from repro.cli import main

        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sim: error: ") and message in err
        assert len(err.strip().splitlines()) == 1


class TestWarmPool:
    def test_second_execute_spawns_zero_workers(self, points, serial):
        pool = dist.WorkerPool()
        backend = dist.backend("worker", pool=pool)
        try:
            first = Campaign(points, workers=2, backend=backend).run()
            spawned = pool.spawned_total
            assert spawned >= 1
            second = Campaign(points, workers=2, backend=backend).run()
            assert pool.spawned_total == spawned
            expected = [r.result for r in serial]
            assert [r.result for r in first] == expected
            assert [r.result for r in second] == expected
            stats = pool.stats()
            assert stats["points_served"] == 2 * len(points)
            # Preloads happen once: the second run hits pinned traces.
            assert stats["preloads"] == sum(
                w["preloaded_traces"] for w in stats["workers"]
            )
            # First run replays the pinned traces; the re-run is served
            # straight from the result memo (determinism contract).
            assert stats["trace_cache_hits"] == len(points)
            assert stats["result_cache_hits"] == len(points)
        finally:
            pool.shutdown()

    def test_pins_stay_bounded_and_match_the_ledger(self):
        """Fresh-seed campaigns evict the least recently used pins: each
        worker stays within the bound, and the dispatcher's ledger names
        exactly the traces the worker still holds."""
        from repro.dist.worker import TRACE_PIN_LIMIT
        from repro.workloads import SPECINT95

        pool = dist.WorkerPool()
        backend = dist.backend("worker", pool=pool)
        campaigns = 6
        try:
            for seed in range(100, 100 + campaigns):
                pts = expand_grid(
                    sorted(SPECINT95), ["modulo"], seeds=[seed],
                    n_instructions=N, warmup=W,
                )
                Campaign(pts, workers=2, backend=backend).run()
            stats = pool.stats()
            workers = stats["workers"]
            assert len(workers) == 2
            assert stats["preloads"] == campaigns * len(SPECINT95)
            for slot, w in enumerate(workers):
                assert w["preloaded_traces"] <= TRACE_PIN_LIMIT
                assert sorted(tuple(key) for key in w["pinned"]) == sorted(
                    pool.worker_at(slot).preloaded
                )
            # More groups than two workers may pin: some were evicted.
            assert sum(w["preloaded_traces"] for w in workers) < (
                stats["preloads"]
            )
        finally:
            pool.shutdown()

    def test_shared_pool_is_per_command_and_process_wide(self):
        assert dist.shared_pool() is dist.shared_pool()
        other = dist.shared_pool([sys.executable, "-c", "pass"])
        assert other is not dist.shared_pool()

    def test_split_group_identical_to_serial(self):
        """One oversized group spreads over both workers (the jobs=2
        inversion fix) without changing a single result."""
        pts = expand_grid(
            ["gcc"],
            ["modulo", "general-balance", "br-slice", "ldst-slice"],
            n_instructions=N, warmup=W,
        )
        expected = [r.result for r in Campaign(pts, backend="serial").run()]
        pool = dist.WorkerPool()
        try:
            backend = dist.backend("worker", pool=pool)
            results = Campaign(pts, workers=2, backend=backend).run()
            assert [r.result for r in results] == expected
            stats = pool.stats()
            assert pool.spawned_total == 2
            assert stats["points_served"] == len(pts)
            # Both workers pinned the single shared trace and served
            # part of the group.
            assert all(
                w["preloaded_traces"] == 1 and w["points_served"] > 0
                for w in stats["workers"]
            )
        finally:
            pool.shutdown()

    def test_effective_workers_uncapped_for_splitting_backends(self):
        pts = expand_grid(
            ["gcc"], ["modulo", "general-balance"],
            n_instructions=N, warmup=W,
        )
        assert Campaign(pts, workers=4).effective_workers == 1
        assert (
            Campaign(pts, workers=4, backend="worker").effective_workers
            == 2
        )

    def test_warm_crash_mid_split_group_is_retried(
        self, tmp_path, monkeypatch
    ):
        """A worker crash inside a split group loses only its chunk,
        which is retried; results still match serial point for point."""
        pts = expand_grid(
            ["gcc"],
            ["modulo", "general-balance", "br-slice", "ldst-slice"],
            n_instructions=N, warmup=W,
        )
        expected = [r.result for r in Campaign(pts, backend="serial").run()]
        flag = tmp_path / "crash-once"
        flag.write_text("boom")
        monkeypatch.setenv("REPRO_DIST_CRASH_FLAG", str(flag))
        # The pool is created *after* the flag env var is set, so its
        # workers inherit it at spawn time.
        pool = dist.WorkerPool()
        try:
            backend = dist.backend("worker", pool=pool, retries=1)
            results = Campaign(pts, workers=2, backend=backend).run()
            assert not flag.exists()
            assert [r.result for r in results] == expected
            # The retry respawned exactly one replacement worker.
            assert pool.spawned_total == 3
        finally:
            pool.shutdown()

    def test_worker_stderr_tail_lands_in_the_error(self):
        backend = dist.backend(
            "worker",
            retries=0,
            command=[
                sys.executable,
                "-c",
                "import sys; sys.stdin.readline(); "
                "print('KABOOM from worker', file=sys.stderr); "
                "sys.exit(3)",
            ],
        )
        pts = [RunSpec("gcc", "modulo", n_instructions=N, warmup=W)]
        with pytest.raises(CampaignError, match="KABOOM from worker"):
            Campaign(pts, backend=backend).run()
