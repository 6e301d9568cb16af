"""Tests for the length-prefixed TCP transport."""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.exec import MasterWorkerExecutor, RunContext, SerialExecutor
from repro.parallel import transport as transport_mod
from repro.parallel.comm import (
    ANY_SOURCE,
    ANY_TAG,
    Comm,
    CommTimeoutError,
    TAG_PEER_LOST,
    default_timeout,
)
from repro.parallel.transport import TcpListener, TcpTransport, worker_command

TIMEOUT = 20.0


def _fabric(n_workers: int):
    """Accept ``n_workers`` in-process connections; returns all comms.

    The master's accept blocks, so workers connect from threads; every
    returned transport belongs to this process.
    """
    listener = TcpListener("127.0.0.1", 0)
    host, port = listener.address
    workers: list[TcpTransport] = []
    errors: list[BaseException] = []

    def connect():
        try:
            workers.append(TcpTransport.connect(host, port, timeout=TIMEOUT))
        except BaseException as exc:  # pragma: no cover - debug aid
            errors.append(exc)

    threads = [threading.Thread(target=connect) for _ in range(n_workers)]
    for t in threads:
        t.start()
    master = listener.accept(n_workers, timeout=TIMEOUT)
    for t in threads:
        t.join(TIMEOUT)
    assert not errors, errors
    workers.sort(key=lambda t: t.rank)
    return master, [Comm(master, 0)] + [Comm(t, t.rank) for t in workers]


class TestPointToPoint:
    def test_round_trip_both_directions(self):
        master, comms = _fabric(1)
        try:
            comms[0].send({"x": 1}, 1, tag=3)
            assert comms[1].recv() == (0, 3, {"x": 1})
            comms[1].send("reply", 0, tag=4)
            assert comms[0].recv() == (1, 4, "reply")
        finally:
            master.close()

    def test_numpy_payload_bitwise(self):
        master, comms = _fabric(1)
        try:
            rng = np.random.default_rng(7)
            block = rng.standard_normal((5, 8, 3)).astype(np.float32)
            comms[0].send(("tile", 0, block), 1, tag=2)
            _, _, (_, _, out) = comms[1].recv()
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, block)
        finally:
            master.close()

    def test_worker_to_worker_relays_through_master(self):
        master, comms = _fabric(2)
        try:
            arr = np.arange(12, dtype=np.int64)
            comms[1].send(arr, 2, tag=9)
            src, tag, out = comms[2].recv(source=1, tag=9)
            assert (src, tag) == (1, 9)
            np.testing.assert_array_equal(out, arr)
        finally:
            master.close()

    def test_byte_counters_grow(self):
        master, comms = _fabric(1)
        try:
            comms[0].send(np.zeros(1000), 1)
            comms[1].recv()
            assert comms[0].stats.bytes_sent > 8000
            assert comms[1].stats.bytes_recv > 8000
            assert comms[0].stats.msgs_sent == 1
        finally:
            master.close()


class TestCollectives:
    def test_bcast(self):
        master, comms = _fabric(2)
        try:
            results = []

            def drain(comm):
                results.append(comm.bcast())

            threads = [
                threading.Thread(target=drain, args=(c,)) for c in comms[1:]
            ]
            for t in threads:
                t.start()
            comms[0].bcast({"config": 1})
            for t in threads:
                t.join(TIMEOUT)
            assert results == [{"config": 1}] * 2
        finally:
            master.close()


class TestFailureDetection:
    def test_abrupt_close_delivers_peer_lost(self):
        master, comms = _fabric(2)
        try:
            # Worker 1 dies without the BYE handshake.
            sock = comms[1]._transport._master_sock
            assert sock is not None
            sock.close()
            src, tag, _ = comms[0].recv(tag=TAG_PEER_LOST)
            assert (src, tag) == (1, TAG_PEER_LOST)
            assert master.alive_workers() == [2]
            # The surviving link still works.
            comms[0].send("still here", 2)
            assert comms[2].recv()[2] == "still here"
        finally:
            master.close()

    def test_clean_close_keeps_worker_in_alive_list(self):
        """A departed-with-BYE worker still owes its TAG_DONE report."""
        master, comms = _fabric(1)
        try:
            comms[1].send("report", 0, tag=6)
            comms[1]._transport.close()
            assert comms[0].recv(tag=6)[2] == "report"
            assert master.alive_workers() == [1]
        finally:
            master.close()

    def test_timeout_error_names_rank_tag_and_elapsed(self):
        listener = TcpListener("127.0.0.1", 0)
        host, port = listener.address
        worker_holder: list[TcpTransport] = []
        t = threading.Thread(
            target=lambda: worker_holder.append(
                TcpTransport.connect(host, port, timeout=TIMEOUT)
            )
        )
        t.start()
        master = listener.accept(1, timeout=0.3)
        t.join(TIMEOUT)
        try:
            with pytest.raises(CommTimeoutError) as excinfo:
                Comm(master, 0).recv(source=1, tag=5)
            message = str(excinfo.value)
            assert "rank 0/2" in message
            assert "tag=5" in message
            assert "timed out after" in message
            assert "FCMA_COMM_TIMEOUT" in message
        finally:
            master.close()


class TestConfigurableTimeout:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("FCMA_COMM_TIMEOUT", raising=False)
        assert default_timeout() == 120.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("FCMA_COMM_TIMEOUT", "7.5")
        assert default_timeout() == 7.5

    @pytest.mark.parametrize("bad", ["zero", "0", "-3"])
    def test_bad_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("FCMA_COMM_TIMEOUT", bad)
        with pytest.raises(ValueError, match="FCMA_COMM_TIMEOUT"):
            default_timeout()


class TestListener:
    def test_address_known_before_accept(self):
        listener = TcpListener("127.0.0.1", 0)
        try:
            host, port = listener.address
            assert host == "127.0.0.1"
            assert port > 0
        finally:
            listener.close()

    def test_peer_hosts_names_where_each_rank_connected_from(self):
        """What the executor counts co-hosted workers with (each rank's
        engine thread budget is its host's cores over that count)."""
        master, _ = _fabric(2)
        try:
            assert master.peer_hosts() == {1: "127.0.0.1", 2: "127.0.0.1"}
        finally:
            master.close()

    def test_worker_command_round_trips_endpoint(self):
        cmd = worker_command("127.0.0.1", 39123, timeout=5.0)
        joined = " ".join(cmd)
        assert "--connect 127.0.0.1:39123" in joined
        assert "--timeout 5.0" in joined

    def test_recv_wildcards_match_relayed_traffic(self):
        master, comms = _fabric(2)
        try:
            comms[1].send("a", 0, tag=1)
            comms[2].send("b", 0, tag=2)
            got = {comms[0].recv(source=ANY_SOURCE, tag=ANY_TAG)[2] for _ in range(2)}
            assert got == {"a", "b"}
        finally:
            master.close()


class TestForkServer:
    """Local TCP ranks are forked from one pre-imported server per
    master process (:func:`repro.parallel.transport.spawn_local_workers`)."""

    @staticmethod
    def _run(dataset, partition="tiles"):
        config = FCMAConfig(task_voxels=20, target_block=32, comm_timeout=30)
        serial = SerialExecutor().run(dataset, RunContext(config))
        scores = MasterWorkerExecutor(
            n_workers=2, transport="tcp", partition=partition
        ).run(dataset, RunContext(config))
        np.testing.assert_array_equal(scores.voxels, serial.voxels)
        np.testing.assert_array_equal(scores.accuracies, serial.accuracies)
        return transport_mod._fork_server.proc.pid

    @staticmethod
    def _gone(pid: int) -> bool:
        """No process ``pid`` exists any more (a zombie would answer)."""
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            time.sleep(0.01)
        return False

    def test_runs_in_one_process_share_one_server(self, tiny_dataset):
        first = self._run(tiny_dataset, "tiles")
        assert self._run(tiny_dataset, "rows") == first

    def test_a_killed_server_is_replaced(self, tiny_dataset):
        server = transport_mod._local_fork_server()
        server.proc.kill()
        server.proc.wait(TIMEOUT)
        assert self._run(tiny_dataset) != server.proc.pid

    def test_a_changed_environment_starts_a_new_server(
        self, tiny_dataset, monkeypatch
    ):
        before = self._run(tiny_dataset)
        monkeypatch.setenv("FCMA_FORK_SERVER_TEST", "1")
        after = self._run(tiny_dataset)
        assert after != before
        assert self._gone(before)  # closed, not left behind

    def test_a_failing_worker_exits_nonzero_and_the_server_serves_on(
        self, tiny_dataset
    ):
        server = transport_mod._local_fork_server()
        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        (worker,) = server.spawn("127.0.0.1", port, 1, timeout=TIMEOUT)
        # ``serve`` raised ConnectionRefusedError; the child reported
        # its code and left through ``os._exit`` (not a kill: -9).
        assert worker.wait(TIMEOUT) == 1
        assert self._gone(worker.pid)
        assert self._run(tiny_dataset) == server.proc.pid

    def test_hung_forked_worker_is_killed_after_the_grace_and_gone(
        self, tiny_dataset, monkeypatch, tmp_path
    ):
        """The twin of ``TestSpawnedWorkersAreReaped`` with the real
        handle under ``_tcp_ranks``' grace, kill and reap: a worker
        stuck in ``time.sleep`` is SIGKILLed after the grace and gone
        (the kernel reaped it; the server ignores SIGCHLD)."""
        from repro.exec import executors as executors_mod

        # Workers that sleep instead of serving: the changed PYTHONPATH
        # starts a new server (the environment rule), whose
        # sitecustomize replaces ``serve`` before anything is forked.
        (tmp_path / "sitecustomize.py").write_text(
            "import time\n"
            "import repro.parallel.tcp_worker as worker\n"
            "worker.serve = lambda *args: time.sleep(600)\n"
        )
        monkeypatch.setenv(
            "PYTHONPATH",
            os.pathsep.join(
                filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])
            ),
        )
        forked: list = []

        class Impatient:
            """The real handle, its 10 s grace cut to 0.2 s."""

            def __init__(self, handle):
                self.handle = handle

            def wait(self, timeout=None):
                return self.handle.wait(None if timeout is None else 0.2)

            def kill(self):
                self.handle.kill()

        def spawn(address, n_workers, timeout=None):
            # The run's 0.5 s is for the accept; the new server's boot
            # gets the usual wait.
            forked.extend(
                transport_mod.spawn_local_workers(address, n_workers, TIMEOUT)
            )
            return [Impatient(handle) for handle in forked]

        monkeypatch.setattr(executors_mod, "spawn_local_workers", spawn)
        ctx = RunContext(FCMAConfig(task_voxels=16, comm_timeout=0.5))
        with pytest.raises(CommTimeoutError):
            MasterWorkerExecutor(n_workers=2, transport="tcp").run(tiny_dataset, ctx)
        assert len(forked) == 2
        assert [handle.returncode for handle in forked] == [-signal.SIGKILL] * 2
        assert all(self._gone(handle.pid) for handle in forked)
