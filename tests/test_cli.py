"""Smoke tests for the CLI entry points and the package conveniences."""

import subprocess
import sys

import pytest


class TestPackageConveniences:
    def test_repro_connect_starts_and_reuses(self):
        import repro
        from repro.core.database import active_database

        connection = repro.connect()
        try:
            assert active_database() is not None
            connection.execute("CREATE TABLE c (a INTEGER)")
            # a second connect() reuses the running instance
            second = repro.connect()
            assert second._database is connection._database
            second.close()
        finally:
            connection.close()
            repro.shutdown()

    def test_version(self):
        import repro

        assert repro.__version__


class TestBenchCLI:
    def test_fig6_quick_single_system(self):
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.bench", "fig6",
                "--quick", "--sf", "0.001", "--systems", "MonetDBLite",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "Figure 6" in completed.stdout
        assert "MonetDBLite" in completed.stdout

    def test_invalid_experiment_rejected(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.bench", "fig99"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode != 0

    def test_no_experiment_without_trace_rejected(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.bench"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode != 0

    def test_trace_summaries(self):
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.bench", "--trace",
                "--sf", "0.002", "--queries", "1", "6",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "TPC-H trace summaries" in completed.stdout
        assert "Q1:" in completed.stdout and "Q6:" in completed.stdout
        assert "instructions" in completed.stdout


class TestServerCLI:
    def test_spawned_server_process_round_trip(self, tmp_path):
        from repro.server import RemoteConnection, spawn_server_process

        process, port = spawn_server_process(
            engine="rowstore", protocol="pg", directory=str(tmp_path)
        )
        try:
            client = RemoteConnection("127.0.0.1", port, "pg")
            client.execute("CREATE TABLE s (a INTEGER)")
            client.execute("INSERT INTO s VALUES (41)")
            assert client.query("SELECT a + 1 FROM s").fetchall() == [(42,)]
            client.close()
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_spawn_gives_up_on_a_silent_child(self, monkeypatch):
        """``startup_wait`` holds even while the child prints nothing."""
        import threading

        from repro.errors import DatabaseError
        from repro.server import spawn_server_process

        real_popen = subprocess.Popen
        children = []

        def silent_popen(args, **kwargs):
            child = real_popen(
                [sys.executable, "-c", "import time; time.sleep(60)"],
                **kwargs,
            )
            children.append(child)
            return child

        monkeypatch.setattr(subprocess, "Popen", silent_popen)
        outcome = []

        def spawn():
            try:
                spawn_server_process(startup_wait=0.5)
            except DatabaseError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=spawn, daemon=True)
        thread.start()
        thread.join(timeout=20)
        try:
            assert not thread.is_alive(), "startup_wait was not enforced"
            assert len(outcome) == 1
            assert children[0].poll() is not None  # the child was killed
        finally:
            for child in children:
                child.kill()
                child.wait(timeout=10)
