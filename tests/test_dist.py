"""Tests for repro.dist: registry, worker protocol, fault tolerance."""

import io
import json
import sys

import pytest

import repro
from repro import dist
from repro.analysis.campaign import (
    Campaign,
    CampaignError,
    expand_grid,
    run_campaign,
)
from repro.dist.worker import _TaskBoard, _chunks_for_groups, _reply_entry
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

    def test_own_chunks_come_first_in_order(self):
        board = _TaskBoard(1)
        for chunk in ("a", "b", "c"):
            board.put(0, chunk)
        assert [board.take(0) for _ in range(4)] == ["a", "b", "c", None]

    def test_steals_the_tail_of_the_fullest_started_slot(self):
        board = _TaskBoard(3)
        board.put(1, "b1")
        board.put(2, "c1")
        board.put(2, "c2")
        board.put(2, "c3")
        assert board.take(1) == "b1"
        assert board.take(2) == "c1"
        assert board.take(0) == "c3"  # slot 2 holds the most: steal its tail
        assert board.take(1) == "c2"
        assert board.take(2) is None

    def test_empty_board_hands_out_nothing(self):
        board = _TaskBoard(2)
        assert board.take(0) is None
        assert board.take(1) is None


def _indexed(points):
    return list(enumerate(points))


class TestChunksForGroups:
    """How shared-trace groups become dispatchable chunks."""

    def _group(self, bench, schemes, n=N):
        return _indexed(expand_grid(
            [bench], schemes, n_instructions=n, warmup=W,
        ))

    def test_one_group_splits_over_the_workers(self):
        group = self._group(
            "gcc", ["modulo", "general-balance", "br-slice", "ldst-slice"]
        )
        chunks = _chunks_for_groups([group], 2)
        assert [len(chunk[3]) for chunk in chunks] == [2, 2]
        assert [item for chunk in chunks for item in chunk[3]] == group

    def test_a_group_never_splits_below_one_point(self):
        group = self._group("gcc", ["modulo"])
        chunks = _chunks_for_groups([group], 4)
        assert len(chunks) == 1 and chunks[0][3] == group

    def test_chunk_count_follows_the_group_weight(self):
        big = self._group(
            "gcc", ["modulo", "general-balance", "br-slice", "ldst-slice"]
        )
        small = self._group("li", ["modulo"])
        # Four workers over five points: the 4-point group gets
        # round(4 * 4 / 5) = 3 chunks, the 1-point group round(0.8) = 1.
        chunks = _chunks_for_groups([big, small], 4)
        assert [(chunk[1], len(chunk[3])) for chunk in chunks] == [
            (("gcc", 0), 2), (("gcc", 0), 1), (("gcc", 0), 1),
            (("li", 0), 1),
        ]

    def test_uneven_split_puts_the_extra_points_first(self):
        group = self._group(
            "gcc", ["modulo", "general-balance", "br-slice"]
        )
        chunks = _chunks_for_groups([group], 2)
        assert [len(chunk[3]) for chunk in chunks] == [2, 1]

    def test_chunks_start_fresh_and_cover_the_longest_window(self):
        group = _indexed([
            RunSpec("gcc", "modulo", n_instructions=N, warmup=W),
            RunSpec("gcc", "general-balance", n_instructions=2 * N,
                    warmup=W),
        ])
        (chunk,) = _chunks_for_groups([group], 1)
        retries, key, needed, items, parent = chunk
        assert (retries, key, needed, parent) == (0, ("gcc", 0), 2 * N + W,
                                                  None)
        assert items == group


class TestReplyEntry:
    def _result(self):
        return repro.run(RunSpec("gcc", "modulo", n_instructions=N, warmup=W))

    def test_ok_item_carries_result_and_timing(self):
        result = self._result()
        item = {
            "ok": True, "result": result.to_dict(),
            "elapsed_seconds": 1.5, "simulate_seconds": 1.0,
        }
        assert _reply_entry(3, item) == (
            3, result, None,
            {"elapsed_seconds": 1.5, "simulate_seconds": 1.0},
        )

    def test_ok_item_without_timing_has_none(self):
        result = self._result()
        entry = _reply_entry(0, {"ok": True, "result": result.to_dict()})
        assert entry == (0, result, None, None)

    def test_error_item_keeps_the_worker_message(self):
        assert _reply_entry(2, {"ok": False, "error": "boom"}) == (
            2, None, "boom", None,
        )

    def test_missing_item_is_a_generic_error(self):
        assert _reply_entry(5, None) == (5, None, "worker error reply", None)

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

    def test_local_workers_report_their_slot_and_pid(self):
        pool = dist.WorkerPool()
        try:
            pool.ensure(1)
            pid = pool.worker_at(0).transport.proc.pid
            (worker,) = pool.stats()["workers"]
        finally:
            pool.shutdown()
        assert (worker["slot"], worker["pid"]) == (0, pid)


#: A stand-in worker that answers every request with ``ok`` and exits
#: at EOF: pool bookkeeping tests need live slots, not simulations.
_ECHO_WORKER = [
    sys.executable, "-u", "-c",
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    request = json.loads(line)\n"
    "    print(json.dumps({'id': request['id'], 'ok': True}))\n"
    "    if request['op'] == 'shutdown':\n"
    "        break\n",
]


class TestPoolLifecycle:
    """Slot bookkeeping of the local warm pool."""

    def test_pool_worker_answers_ping_over_stdio(self):
        pool = dist.WorkerPool()
        try:
            reply = pool.worker_at(0).request("ping", timeout=60)
        finally:
            pool.shutdown()
        assert reply == {"id": 1, "ok": True, "protocol": 2}

    def test_ensure_is_idempotent(self):
        pool = dist.WorkerPool(_ECHO_WORKER)
        try:
            pool.ensure(2)
            pool.ensure(2)
            pool.ensure(1)
            assert pool.spawned_total == 2
        finally:
            pool.shutdown()

    def test_worker_at_replaces_a_dead_worker(self):
        pool = dist.WorkerPool(_ECHO_WORKER)
        try:
            first = pool.worker_at(0)
            first.transport.proc.kill()
            first.transport.proc.wait(timeout=30)
            second = pool.worker_at(0)
            assert second is not first and second.alive()
            assert pool.spawned_total == 2
            assert second.request("ping", timeout=30)["ok"]
        finally:
            pool.shutdown()

    def test_discard_closes_and_forgets_the_slot(self):
        pool = dist.WorkerPool(_ECHO_WORKER)
        try:
            first = pool.worker_at(0)
            pool.discard(0)
            assert not first.alive()
            pool.discard(0)  # an empty slot: nothing to do
            pool.discard(5)  # a slot never used: nothing to do
            assert pool.worker_at(0) is not first
            assert pool.spawned_total == 2
        finally:
            pool.shutdown()

    def test_shutdown_stops_every_worker_and_the_pool_stays_usable(self):
        pool = dist.WorkerPool(_ECHO_WORKER)
        pool.ensure(2)
        workers = [pool.worker_at(slot) for slot in range(2)]
        pool.shutdown()
        assert not any(worker.alive() for worker in workers)
        assert pool.stats()["workers"] == []
        try:
            pool.ensure(1)
            assert pool.spawned_total == 3
        finally:
            pool.shutdown()

    def test_shutdown_of_an_unspawned_pool_is_harmless(self):
        pool = dist.WorkerPool(_ECHO_WORKER)
        pool.shutdown()
        assert pool.spawned_total == 0

    def test_empty_pool_stats_are_zero(self):
        stats = dist.WorkerPool(_ECHO_WORKER).stats()
        assert stats["workers"] == []
        assert all(
            stats[key] == 0 for key in (
                "spawned_total", "trace_payloads", "payloads_cached",
                "points_served", "batches", "preloads",
                "trace_cache_hits", "trace_cache_misses",
                "result_cache_hits",
            )
        )

    def test_stats_skip_dead_workers(self):
        pool = dist.WorkerPool(_ECHO_WORKER)
        try:
            pool.ensure(2)
            dead = pool.worker_at(1).transport.proc
            dead.kill()
            dead.wait(timeout=30)
            assert [w["slot"] for w in pool.stats()["workers"]] == [0]
        finally:
            pool.shutdown()

    def test_stats_report_a_busy_slot_without_touching_it(self):
        import threading

        pool = dist.WorkerPool(_ECHO_WORKER)
        held, release = threading.Event(), threading.Event()

        def hold_slot():
            with pool.slot_lock(0):
                held.set()
                release.wait(30)

        try:
            pool.ensure(1)
            holder = threading.Thread(target=hold_slot)
            holder.start()
            held.wait(30)
            try:
                assert pool.stats()["workers"] == [{"slot": 0, "busy": True}]
            finally:
                release.set()
                holder.join(30)
            # The slot's stream is intact: the next request is answered.
            assert pool.worker_at(0).request("ping", timeout=30)["ok"]
        finally:
            pool.shutdown()

    def test_slot_locks_are_per_slot_and_stable(self):
        pool = dist.WorkerPool(_ECHO_WORKER)
        assert pool.slot_lock(0) is pool.slot_lock(0)
        assert pool.slot_lock(0) is not pool.slot_lock(1)

    def test_timed_out_worker_is_replaced_in_its_slot(
        self, tmp_path, monkeypatch
    ):
        flag = tmp_path / "hang-once"
        flag.write_text("zzz")
        monkeypatch.setenv("REPRO_DIST_HANG_FLAG", str(flag))
        monkeypatch.setenv("REPRO_DIST_HANG_SECONDS", "60")
        pts = [RunSpec("gcc", "modulo", n_instructions=N, warmup=W)]
        pool = dist.WorkerPool()
        try:
            pool.ensure(1)
            hung_pid = pool.worker_at(0).transport.proc.pid
            backend = dist.WorkerBackend(pool=pool, timeout=8, retries=1)
            results = Campaign(pts, backend=backend).run()
            assert pool.spawned_total == 2
            assert pool.worker_at(0).transport.proc.pid != hung_pid
        finally:
            pool.shutdown()
        assert results[0].result == repro.run(pts[0])

    def test_pool_memo_serves_a_second_backend(self, points, serial):
        """Two backends over one pool share its workers' result memo."""
        pool = dist.WorkerPool()
        try:
            Campaign(points, workers=2,
                     backend=dist.WorkerBackend(pool=pool)).run()
            again = Campaign(points, workers=2,
                             backend=dist.WorkerBackend(pool=pool)).run()
            assert pool.spawned_total == 2
            assert pool.stats()["result_cache_hits"] == len(points)
        finally:
            pool.shutdown()
        _assert_identical(again, serial)


class TestWorkerBackendOptions:
    def test_backend_by_name_dispatches_through_the_given_pool(self):
        pool = dist.WorkerPool(_ECHO_WORKER)
        backend = dist.backend("worker", pool=pool, timeout=5, retries=0)
        assert isinstance(backend, dist.WorkerBackend)
        assert (backend.pool, backend.timeout, backend.retries) == (
            pool, 5.0, 0,
        )

    def test_pool_less_backend_uses_the_shared_pool_for_its_command(self):
        backend = dist.WorkerBackend(command=_ECHO_WORKER)
        assert backend.pool is None
        assert backend.command == _ECHO_WORKER
        assert dist.shared_pool(backend.command) is dist.shared_pool(
            _ECHO_WORKER
        )

    @pytest.mark.parametrize("via", ["backend", "backend-by-name"])
    def test_unknown_option_is_a_type_error(self, via):
        with pytest.raises(TypeError):
            if via == "backend":
                dist.WorkerBackend(remote=["127.0.0.1:1"])
            else:
                dist.backend("worker", remote=["127.0.0.1:1"])

    def test_pool_takes_no_remote_fleet(self):
        with pytest.raises(TypeError):
            dist.WorkerPool(remote=["127.0.0.1:1"])

    def test_worker_command_runs_this_interpreter_over_stdio(self):
        from repro.dist.worker import stdio_worker_command

        command = stdio_worker_command()
        assert command[0] == sys.executable
        assert command[-3:] == ["dist", "worker", "--stdio"]

    def test_worker_environment_puts_this_source_first(self, monkeypatch):
        import os

        from repro.dist.worker import worker_environment

        monkeypatch.setenv("PYTHONPATH", "elsewhere")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        assert worker_environment()["PYTHONPATH"] == (
            src + os.pathsep + "elsewhere"
        )
        monkeypatch.delenv("PYTHONPATH")
        assert worker_environment()["PYTHONPATH"] == src


class TestRemovedSurfaces:
    """Removed command lines (the daemon's, `pool status`, listen-mode
    workers): argparse rejects them."""

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
            ["dist", "worker", "--listen", "127.0.0.1:0"],
            ["dist", "pool", "status", "--worker", "x:1"],
        ],
        ids=[
            "dist-serve", "dist-serve-status", "dist-serve-stop",
            "telemetry-dump", "campaign-service-address",
            "suite-run-service-address", "pool-status-without-worker",
            "pool-status-jobs", "worker-listen", "pool-status-worker",
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
            (["campaign", "-b", "gcc", "-s", "modulo", "--backend",
              "worker", "--dist-timeout", "soon"],
             "timeout must be a positive number of seconds or none"),
        ],
        ids=["campaign-service-backend", "campaign-bad-dist-timeout"],
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

    def test_shutdown_leaves_no_open_pipes(self):
        """Stopping the workers closes their pipes, so the garbage
        collector finds no unclosed file to warn about."""
        import gc
        import time
        import warnings
        import weakref

        pool = dist.WorkerPool()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pool.ensure(2)
            transports = []
            for slot in range(2):
                worker = pool.worker_at(slot)
                worker.request("ping", timeout=60)
                transports.append(weakref.ref(worker.transport))
            del worker
            pool.shutdown()
            deadline = time.monotonic() + 10
            while any(ref() is not None for ref in transports):
                assert time.monotonic() < deadline, "a worker outlived it"
                gc.collect()
                time.sleep(0.01)
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

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
