"""Tests for job directories: package, claim, merge."""

import json
import os
import threading

import pytest

from repro import dist
from repro.analysis.campaign import (
    Campaign,
    CampaignResults,
    expand_grid,
    run_campaign,
)
from repro.errors import DistError
from repro.spec import RunSpec
from repro.workloads import (
    clear_workload_cache,
    reset_trace_stats,
    trace_build_counts,
)

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


def _job(points, tmp_path, name="job"):
    job_dir = str(tmp_path / name)
    dist.package_job(points, job_dir)
    return job_dir


class TestPackaging:
    def test_layout(self, points, tmp_path):
        job_dir = str(tmp_path / "job")
        job = dist.package_job(points, job_dir, description="test grid")
        assert job.n_points == len(points) and job.n_traces == 2
        with open(os.path.join(job_dir, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["format"] == "repro-dist-job"
        assert len(manifest["points"]) == len(points)
        assert sorted(manifest["traces"]) == [
            "gcc-s0.rtrace", "li-s0.rtrace",
        ]
        assert len(os.listdir(os.path.join(job_dir, "queue"))) == len(points)
        for fname in manifest["traces"]:
            assert os.path.isfile(os.path.join(job_dir, "traces", fname))

    def test_manifest_round_trips_the_points(self, points, tmp_path):
        job_dir = _job(points, tmp_path)
        assert dist.load_manifest_points(job_dir) == list(points)

    def test_repackaging_is_rejected(self, points, tmp_path):
        job_dir = _job(points, tmp_path)
        with pytest.raises(DistError, match="already"):
            dist.package_job(points, job_dir)

    def test_empty_grid_is_rejected(self, tmp_path):
        with pytest.raises(DistError, match="empty"):
            dist.package_job([], str(tmp_path / "job"))

    def test_not_a_job_dir(self, tmp_path):
        with pytest.raises(DistError, match="manifest"):
            dist.load_manifest_points(str(tmp_path))


class TestClaiming:
    def test_each_point_claimed_exactly_once(self, points, tmp_path):
        job_dir = _job(points, tmp_path)
        seen = []
        while True:
            entry = dist.claim_point(job_dir, "only-worker")
            if entry is None:
                break
            seen.append(entry["index"])
        assert sorted(seen) == list(range(len(points)))
        assert dist.claim_point(job_dir, "late-worker") is None

    def test_concurrent_claims_never_hand_out_duplicates(
        self, points, tmp_path
    ):
        """The claim race: many threads hammer one queue; every point
        is claimed exactly once across all of them."""
        job_dir = _job(points, tmp_path)
        claims = {f"w{i}": [] for i in range(4)}

        def grab(worker_id):
            while True:
                entry = dist.claim_point(job_dir, worker_id)
                if entry is None:
                    return
                claims[worker_id].append(entry["index"])

        threads = [
            threading.Thread(target=grab, args=(wid,)) for wid in claims
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        everything = sorted(
            index for got in claims.values() for index in got
        )
        assert everything == list(range(len(points)))


class TestWorkersAndMerge:
    def test_two_workers_merge_identical_to_serial(
        self, points, serial, tmp_path
    ):
        """Acceptance: package -> two workers -> merge produces a store
        point-for-point identical to the serial backend."""
        job_dir = _job(points, tmp_path)
        threads = [
            threading.Thread(
                target=dist.run_worker,
                args=(job_dir,),
                kwargs={"worker_id": f"w{i}"},
            )
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store = str(tmp_path / "merged.json")
        merged = dist.merge_job(job_dir, store=store)
        assert merged.complete
        assert [(r.point, r.result) for r in merged.results()] == [
            (r.point, r.result) for r in serial
        ]
        assert [(r.point, r.result) for r in CampaignResults.load(store)] \
            == [(r.point, r.result) for r in serial]

    def test_worker_replays_packaged_traces_without_regeneration(
        self, points, tmp_path
    ):
        """The shipping-unit property: a worker process regenerates no
        workload trace — everything replays from the packaged .rtrace."""
        job_dir = _job(points, tmp_path)
        clear_workload_cache()
        reset_trace_stats()
        done = dist.run_worker(job_dir, worker_id="solo")
        assert done == len(points)
        assert trace_build_counts() == {}

    def test_restarted_worker_keeps_its_earlier_points(
        self, points, serial, tmp_path
    ):
        """A worker restarted with the same id (the crash-recovery flow)
        must append to its partial store, not clobber it — the earlier
        points' queue tokens are gone, so clobbering loses them."""
        job_dir = _job(points, tmp_path)
        first = dist.run_worker(job_dir, worker_id="hostA", max_points=2)
        assert first == 2
        second = dist.run_worker(job_dir, worker_id="hostA")
        assert second == len(points) - 2
        merged = dist.merge_job(job_dir)
        assert merged.complete
        assert [(r.point, r.result) for r in merged.results()] == [
            (r.point, r.result) for r in serial
        ]

    def test_merge_of_incomplete_job_raises(self, points, tmp_path):
        job_dir = _job(points, tmp_path)
        dist.run_worker(job_dir, worker_id="partial", max_points=2)
        with pytest.raises(DistError, match="incomplete"):
            dist.merge_job(job_dir)
        merged = dist.merge_job(job_dir, allow_partial=True)
        assert len(merged.runs) == 2 and len(merged.missing) == 2

    def test_status_counts(self, points, tmp_path):
        job_dir = _job(points, tmp_path)
        before = dist.job_status(job_dir)
        assert (before.total, before.pending, before.completed) == (4, 4, 0)
        dist.run_worker(job_dir, worker_id="s", max_points=3)
        status = dist.job_status(job_dir)
        assert status.completed == 3 and status.pending == 1
        assert status.in_flight == 0 and status.failed == 0
        assert "3/4 completed" in status.describe()

    def test_failed_point_is_recorded_and_does_not_stop_the_queue(
        self, tmp_path
    ):
        pts = [
            RunSpec("gcc", "modulo", n_instructions=N, warmup=W),
            RunSpec(
                "gcc", "no-such-scheme", n_instructions=N, warmup=W
            ),
            RunSpec(
                "gcc", "general-balance", n_instructions=N, warmup=W
            ),
        ]
        job_dir = _job(pts, tmp_path)
        done = dist.run_worker(job_dir, worker_id="w")
        assert done == 2  # the healthy siblings both completed
        with pytest.raises(DistError, match="1 failed"):
            dist.merge_job(job_dir)
        merged = dist.merge_job(job_dir, allow_partial=True)
        assert list(merged.failures) == [1]
        assert "no-such-scheme" in merged.failures[1]
        assert dist.job_status(job_dir).failed == 1

    def test_requeue_lost_recovers_an_abandoned_claim(
        self, points, serial, tmp_path
    ):
        """A worker that claims a point and dies leaves it in claimed/;
        requeue_lost puts it back and a healthy worker finishes the job
        with results still identical to serial."""
        job_dir = _job(points, tmp_path)
        entry = dist.claim_point(job_dir, "doomed")
        assert entry is not None  # ...and the worker "dies" here
        assert dist.job_status(job_dir).in_flight == 1
        assert dist.requeue_lost(job_dir) == 1
        assert dist.job_status(job_dir).in_flight == 0
        dist.run_worker(job_dir, worker_id="healthy")
        merged = dist.merge_job(job_dir)
        assert [(r.point, r.result) for r in merged.results()] == [
            (r.point, r.result) for r in serial
        ]

    def test_duplicate_results_deduplicate_deterministically(
        self, points, serial, tmp_path
    ):
        """Two workers simulating the same point (a requeue race) still
        merge to exactly one result per manifest point."""
        job_dir = _job(points, tmp_path)
        dist.run_worker(job_dir, worker_id="w1")
        # Rebuild the queue and run everything again as another worker:
        # every point now has two partial-store entries.
        for index in range(len(points)):
            token = os.path.join(
                job_dir, "queue", f"point-{index:05d}.json"
            )
            with open(token, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "index": index,
                        "spec": points[index].to_dict(),
                        "trace": dist.trace_filename(
                            *points[index].trace_key
                        ),
                    },
                    fh,
                )
        dist.run_worker(job_dir, worker_id="w2")
        merged = dist.merge_job(job_dir)
        assert merged.workers == ("w1", "w2")
        assert [(r.point, r.result) for r in merged.results()] == [
            (r.point, r.result) for r in serial
        ]

    def test_merge_preserves_existing_store_points(
        self, points, serial, tmp_path
    ):
        """resume=True semantics: extra points already in the output
        store survive a merge over a different grid."""
        store = str(tmp_path / "store.json")
        extra = expand_grid(["go"], ["modulo"], n_instructions=N, warmup=W)
        run_campaign(extra, store=store)
        job_dir = _job(points, tmp_path)
        dist.run_worker(job_dir, worker_id="w")
        dist.merge_job(job_dir, store=store)
        stored = CampaignResults.load(store)
        assert len(stored) == len(points) + 1
        assert {r.point.bench for r in stored} == {"gcc", "li", "go"}
        # And a resumed campaign over the merged grid reuses everything.
        rerun = run_campaign(points, store=store, resume=True)
        assert rerun.n_simulated == 0 and rerun.n_cached == len(points)


class TestCliPipeline:
    def test_merge_writes_both_stores_and_modes_are_exclusive(
        self, points, tmp_path, capsys
    ):
        from repro.cli import main

        job_dir = _job(points, tmp_path)
        dist.run_worker(job_dir, worker_id="w")
        json_store = str(tmp_path / "m.json")
        csv_store = str(tmp_path / "m.csv")
        assert main(
            ["dist", "merge", job_dir,
             "--json", json_store, "--csv", csv_store]
        ) == 0
        out = capsys.readouterr().out
        assert json_store in out and csv_store in out
        assert len(CampaignResults.load(json_store)) == len(points)
        assert len(CampaignResults.load(csv_store)) == len(points)
        # worker invocation must pick exactly one mode.
        assert main(["dist", "worker"]) == 2
        assert main(["dist", "worker", job_dir, "--stdio"]) == 2

    def test_requeue_racing_a_live_worker_does_not_crash_it(self):
        # The live worker's claim token can vanish under --requeue-lost;
        # dropping the claim must swallow that, not kill the worker.
        from repro.dist.dirqueue import _drop_claim

        _drop_claim("/nonexistent/claim/token.json")
