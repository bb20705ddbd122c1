"""Tests for repro.dist.serve: fair share, the daemon, the service backend."""

import io
import json
import threading
import time

import pytest

from repro import dist
from repro.analysis.campaign import Campaign, expand_grid, run_campaign
from repro.dist import serve as serve_module
from repro.dist.transport import listen_socket
from repro.errors import ConfigError, DistError

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


@pytest.fixture
def daemon():
    """One fresh daemon (ephemeral port, one local worker) per test."""
    instance = dist.ServeDaemon(address="127.0.0.1:0", jobs=1).start()
    yield instance
    instance.stop()


def _assert_identical(results, serial):
    assert [(r.point, r.result) for r in results] == [
        (r.point, r.result) for r in serial
    ]


class TestFairScheduler:
    def test_single_tenant_is_fifo(self):
        sched = dist.FairScheduler()
        for item in range(5):
            sched.push("a", item)
        assert [sched.pop(timeout=1) for _ in range(5)] == [
            ("a", item) for item in range(5)
        ]

    def test_equal_weights_alternate(self):
        sched = dist.FairScheduler()
        for item in range(3):
            sched.push("a", f"a{item}")
            sched.push("b", f"b{item}")
        tenants = [sched.pop(timeout=1)[0] for _ in range(6)]
        assert tenants == ["a", "b", "a", "b", "a", "b"]

    def test_weight_gives_consecutive_turns(self):
        sched = dist.FairScheduler()
        sched.set_weight("a", 2)
        for item in range(4):
            sched.push("a", item)
        for item in range(2):
            sched.push("b", item)
        tenants = [sched.pop(timeout=1)[0] for _ in range(6)]
        assert tenants == ["a", "a", "b", "a", "a", "b"]

    def test_deep_backlog_cannot_starve_late_tenant(self):
        """The starvation property: a fresh tenant is served within one
        rotation no matter how deep the earlier tenant's backlog is."""
        sched = dist.FairScheduler()
        for item in range(100):
            sched.push("hog", item)
        assert sched.pop(timeout=1)[0] == "hog"
        sched.push("late", "first")
        picks = [sched.pop(timeout=1)[0] for _ in range(2)]
        assert "late" in picks

    def test_pop_timeout_returns_none(self):
        assert dist.FairScheduler().pop(timeout=0.05) is None

    def test_pop_blocks_until_push(self):
        sched = dist.FairScheduler()
        threading.Timer(0.1, sched.push, args=("a", 42)).start()
        assert sched.pop(timeout=5) == ("a", 42)

    def test_bad_weight_raises_config_error(self):
        with pytest.raises(ConfigError, match="positive integer"):
            dist.FairScheduler().set_weight("a", 0)

    def test_depths_and_dispatched(self):
        sched = dist.FairScheduler()
        sched.push("a", 1)
        sched.push("a", 2)
        assert sched.depths() == {"a": 2}
        sched.pop(timeout=1)
        assert sched.depths() == {"a": 1}
        assert sched.dispatched() == {"a": 1}


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


class TestPayloadRelease:
    """A finished job drops its trace payloads unless an unfinished job
    shares them (no worker or thread needed: jobs are fed by hand)."""

    def test_shared_key_outlives_the_first_job(self):
        daemon = dist.ServeDaemon(address="127.0.0.1:0", jobs=1)
        payloads = daemon.pool._payloads
        try:
            first = daemon.submit("a", expand_grid(
                ["gcc", "li"], ["modulo"], n_instructions=N, warmup=W,
            ))
            second = daemon.submit("b", expand_grid(
                ["li"], ["modulo"], n_instructions=N, warmup=W,
            ))
            for key in first.trace_keys | second.trace_keys:
                payloads[key] = (N + W, "payload")
            for index in range(len(first.points)):
                first.record(index, {"ok": True})
            assert first.done.is_set()
            assert set(payloads) == {("li", 0)}
            second.record(0, {"ok": True})
            assert payloads == {}
        finally:
            daemon.stop()


class TestServiceAddressEnv:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_ADDRESS", raising=False)
        assert dist.service_address_from_env() is None

    def test_bad_address_raises_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_ADDRESS", "nope")
        with pytest.raises(ConfigError, match="REPRO_SERVICE_ADDRESS"):
            dist.service_address_from_env()

    def test_tenant_falls_back_to_user(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TENANT", "alice")
        assert dist.service_tenant_from_env() == "alice"
        monkeypatch.delenv("REPRO_SERVICE_TENANT")
        monkeypatch.delenv("USER", raising=False)
        monkeypatch.delenv("USERNAME", raising=False)
        assert dist.service_tenant_from_env() == "default"

    def test_client_without_address_raises_config_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_ADDRESS", raising=False)
        with pytest.raises(ConfigError, match="REPRO_SERVICE_ADDRESS"):
            dist.ServiceClient()


class TestServiceBackend:
    def test_identical_to_serial(self, daemon, points, serial):
        backend = dist.backend("service", address=daemon.address)
        results = Campaign(points, backend=backend).run()
        _assert_identical(results, serial)

    def test_run_campaign_by_name_with_env(
        self, daemon, points, serial, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVICE_ADDRESS", daemon.address)
        monkeypatch.setenv("REPRO_SERVICE_TENANT", "env-tenant")
        results = run_campaign(points, backend="service").results
        _assert_identical(results.runs, serial)
        assert "env-tenant" in daemon.status()["tenants"]

    def test_two_concurrent_tenants_both_identical(
        self, daemon, points, serial
    ):
        outcome = {}

        def tenant_run(name):
            backend = dist.backend(
                "service", address=daemon.address, tenant=name
            )
            outcome[name] = Campaign(points, backend=backend).run()

        threads = [
            threading.Thread(target=tenant_run, args=(name,))
            for name in ("alpha", "beta")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        _assert_identical(outcome["alpha"], serial)
        _assert_identical(outcome["beta"], serial)
        status = daemon.status()
        served = status["tenants"]
        assert served["alpha"]["points_served"] == len(serial)
        assert served["beta"]["points_served"] == len(serial)
        # Both jobs used the same traces; the later to finish released
        # them.
        assert status["pool"]["payloads_cached"] == 0

    def test_finished_jobs_release_their_payloads(self, daemon):
        backend = dist.backend("service", address=daemon.address)
        for seed in (1, 2, 3):
            grid = expand_grid(
                ["gcc", "li"], ["modulo"], seeds=(seed,),
                n_instructions=N, warmup=W,
            )
            Campaign(grid, backend=backend).run()
            stats = daemon.pool.stats()
            assert stats["payloads_cached"] == 0
        assert stats["trace_payloads"] == 6

    def test_worker_death_mid_job_recovers(
        self, points, serial, tmp_path, monkeypatch
    ):
        """A worker crash consumes a retry, not the job."""
        flag = tmp_path / "crash"
        flag.write_text("")
        monkeypatch.setenv("REPRO_DIST_CRASH_FLAG", str(flag))
        daemon = dist.ServeDaemon(
            address="127.0.0.1:0", jobs=1, retries=2
        ).start()
        try:
            backend = dist.backend("service", address=daemon.address)
            results = Campaign(points, backend=backend).run()
        finally:
            daemon.stop()
        _assert_identical(results, serial)
        assert not flag.exists()  # the crash really happened

    def test_exhausted_retries_surface_as_point_errors(
        self, points, tmp_path, monkeypatch
    ):
        from repro.analysis.campaign import CampaignError

        flag = tmp_path / "crash"
        monkeypatch.setenv("REPRO_DIST_CRASH_FLAG", str(flag))
        daemon = dist.ServeDaemon(
            address="127.0.0.1:0", jobs=1, retries=0
        ).start()
        try:
            flag.write_text("")
            backend = dist.backend("service", address=daemon.address)
            with pytest.raises(CampaignError, match="worker failed"):
                Campaign(points[:1], backend=backend).run()
        finally:
            daemon.stop()

    def test_job_survives_client_disconnect(self, daemon, points, serial):
        """The job belongs to the daemon: submit, vanish, re-attach."""
        submitter = dist.ServiceClient(
            address=daemon.address, tenant="ghost"
        )
        job_id = submitter.submit(points)
        submitter.close()  # client gone; the daemon keeps working

        collector = dist.ServiceClient(
            address=daemon.address, tenant="ghost"
        )
        deadline = time.monotonic() + 120
        items = None
        while items is None and time.monotonic() < deadline:
            items = collector.collect(job_id)
        collector.close()
        assert items is not None and len(items) == len(points)
        assert all(item["ok"] for item in items)

    def test_daemon_restart_forces_resubmit(
        self, points, serial, monkeypatch
    ):
        """Job ids die with the daemon; the client resubmits and wins."""
        monkeypatch.setattr(serve_module, "RECONNECT_DELAY", 0.1)
        first = dist.ServeDaemon(address="127.0.0.1:0", jobs=1).start()
        address = first.address
        client = dist.ServiceClient(
            address=address, tenant="t", reconnects=50
        )
        job_id = client.submit(points)
        client.close()  # drop the TCP link so the port frees cleanly
        first.stop()

        deadline = time.monotonic() + 30
        while True:
            try:
                second = dist.ServeDaemon(address=address, jobs=1).start()
                break
            except DistError:  # old connections still draining
                assert time.monotonic() < deadline, "port never freed"
                time.sleep(0.2)
        try:
            with pytest.raises(DistError, match="unknown job"):
                client.collect(job_id)
            items = client.run(points)  # resubmits transparently
        finally:
            client.close()
            second.stop()
        assert len(items) == len(points) and all(i["ok"] for i in items)

    def test_unknown_job_mentions_resubmit(self, daemon):
        client = dist.ServiceClient(address=daemon.address, tenant="t")
        with pytest.raises(DistError, match="resubmit"):
            client.collect("job-0-999")
        client.close()

    def test_status_reports_fleet_and_protocol(self, daemon, points):
        backend = dist.backend("service", address=daemon.address)
        Campaign(points, backend=backend).run()
        client = dist.ServiceClient(address=daemon.address, tenant="cli")
        status = client.status()
        client.close()
        assert status["protocol"] == dist.SERVICE_PROTOCOL_VERSION
        assert status["slots"] == 1
        assert status["jobs"]["completed"] >= 1
        worker = status["pool"]["workers"][0]
        assert worker["transport"] == "stdio"
        assert worker["address"].startswith("pid:")


class TestListenWorkers:
    def _listen_worker(self):
        """One in-process listen-mode worker; returns its address."""
        out = io.StringIO()
        thread = threading.Thread(
            target=dist.serve_listen, args=("127.0.0.1:0", out), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 10
        while "\n" not in out.getvalue():
            assert time.monotonic() < deadline, "worker never announced"
            time.sleep(0.01)
        return out.getvalue().split()[-1]

    def test_remote_fleet_identical_to_serial(self, points, serial):
        addresses = [self._listen_worker(), self._listen_worker()]
        daemon = dist.ServeDaemon(
            address="127.0.0.1:0", jobs=0, remote=addresses
        ).start()
        try:
            backend = dist.backend("service", address=daemon.address)
            results = Campaign(points, backend=backend).run()
            status = daemon.status()
        finally:
            daemon.stop(stop_workers=True)
        _assert_identical(results, serial)
        assert sorted(
            worker["address"] for worker in status["pool"]["workers"]
        ) == sorted(addresses)
        assert all(
            worker["transport"] == "socket"
            for worker in status["pool"]["workers"]
        )

    def test_jobs_submitted_before_fleet_exists_complete(
        self, points, serial
    ):
        """Admission before the fleet is up: dispatch waits, nothing lost."""
        probe = listen_socket("127.0.0.1:0")
        address = dist.format_address(probe.getsockname()[:2])
        probe.close()  # nothing listens here yet
        daemon = dist.ServeDaemon(
            address="127.0.0.1:0", jobs=0, remote=[address]
        ).start()
        client = dist.ServiceClient(address=daemon.address, tenant="early")
        try:
            job_id = client.submit(points[:2])
            time.sleep(0.5)  # dispatcher spins against the dead address
            assert client.collect(job_id) is None

            out = io.StringIO()
            threading.Thread(
                target=dist.serve_listen, args=(address, out), daemon=True
            ).start()
            deadline = time.monotonic() + 120
            items = None
            while items is None and time.monotonic() < deadline:
                items = client.collect(job_id)
        finally:
            client.close()
            daemon.stop(stop_workers=True)
        assert items is not None and all(item["ok"] for item in items)

    def test_dead_slot_does_not_count_or_reorder_chunks(self):
        """A slot whose remote worker is down hands its pops back: the
        tenants' dispatch counts match the attempts made, and each
        tenant's chunks run in submission order."""
        from repro.telemetry import metrics

        probe = listen_socket("127.0.0.1:0")
        dead = dist.format_address(probe.getsockname()[:2])
        probe.close()  # nothing listens here
        daemon = dist.ServeDaemon(
            address="127.0.0.1:0", jobs=0,
            remote=[dead, self._listen_worker()],
        )
        pushed, attempted = {}, {}
        push, attempt = daemon.scheduler.push, daemon._backend._attempt

        def chunk_id(item):
            return tuple(index for index, _ in item[1][3])

        def record_push(tenant, item):
            pushed.setdefault(tenant, []).append(chunk_id(item))
            push(tenant, item)

        def record_attempt(pool, slot, task, parent, tenant):
            attempted.setdefault(tenant, []).append(chunk_id((None, task)))
            return attempt(pool, slot, task, parent, tenant=tenant)

        daemon.scheduler.push = record_push
        daemon._backend._attempt = record_attempt
        grid = expand_grid(
            ["gcc", "li"], ["modulo", "general-balance"], seeds=[0, 1, 2],
            n_instructions=N, warmup=W,
        )
        chunks_before = metrics.counter("dispatch.chunks_total").value
        daemon.start()
        try:
            jobs = [daemon.submit(tenant, grid) for tenant in ("alice", "bob")]
            for job in jobs:
                assert job.done.wait(120), "job never finished"
            status = daemon.status()
        finally:
            daemon.stop(stop_workers=True)
        chunks = metrics.counter("dispatch.chunks_total").value - chunks_before
        dispatched = [
            status["tenants"][tenant]["dispatched_chunks"]
            for tenant in ("alice", "bob")
        ]
        assert sum(dispatched) == chunks
        assert dispatched == [len(pushed["alice"]), len(pushed["bob"])]
        assert attempted == pushed
        assert all(item["ok"] for job in jobs for item in job.items)

    def test_pool_adopts_remote_worker_directly(self, points, serial):
        """WorkerBackend with a remote pool: no daemon in the path."""
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


class TestWatchedJobDirectory:
    def test_adopted_job_merges_identical_to_serial(
        self, points, serial, tmp_path
    ):
        watch = tmp_path / "drop"
        watch.mkdir()
        job_dir = watch / "job-1"
        dist.package_job(points, str(job_dir))
        daemon = dist.ServeDaemon(
            address="127.0.0.1:0", jobs=1, watch=str(watch)
        ).start()
        try:
            deadline = time.monotonic() + 120
            done = job_dir / "serve.done"
            while not done.exists() and time.monotonic() < deadline:
                time.sleep(0.1)
            assert done.exists(), "daemon never finished the dropped job"
            tenants = daemon.status()["tenants"]
        finally:
            daemon.stop()
        merged = dist.merge_job(str(job_dir))
        _assert_identical(merged.results(), serial)
        assert "dir:job-1" in tenants


class TestServeCli:
    def test_serve_status_and_stop(self, daemon, capsys):
        from repro.cli import main

        assert main([
            "dist", "serve", "status", "--address", daemon.address,
        ]) == 0
        out = capsys.readouterr().out
        assert daemon.address in out

        assert main([
            "dist", "serve", "stop", "--address", daemon.address,
        ]) == 0
        assert daemon._stop.wait(timeout=10)

    def test_serve_status_json(self, daemon, tmp_path, capsys):
        from repro.cli import main

        stats = tmp_path / "stats.json"
        assert main([
            "dist", "serve", "status", "--address", daemon.address,
            "--json", str(stats),
        ]) == 0
        payload = json.loads(stats.read_text())
        assert payload["protocol"] == dist.SERVICE_PROTOCOL_VERSION

    def test_serve_status_without_daemon_fails(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_SERVICE_ADDRESS", raising=False)
        assert main(["dist", "serve", "status"]) == 2
        probe = listen_socket("127.0.0.1:0")
        address = dist.format_address(probe.getsockname()[:2])
        probe.close()
        assert main([
            "dist", "serve", "status", "--address", address,
        ]) == 1

    def test_backends_json_lists_service(self, capsys):
        from repro.cli import main

        assert main(["dist", "backends", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert "service" in {entry["name"] for entry in listed}
