"""The master/worker protocol: one suite over both decompositions.

``repro.parallel.tiled`` has one master loop and one worker loop; what
they serve is a ``WorkPlan``.  Every protocol property below is checked
over a **rows** plan (``"task"`` items, the paper's 1-D decomposition)
and a **tiles** plan (``"tile"`` items unlocking ``"score"`` items), so
a guarantee cannot hold for one decomposition and rot for the other.

Failures are injected by monkeypatching the module-level item body the
worker loop calls — ``tiled.execute_task`` for a row task,
``tiled.walk`` for a tile.

A tile returns one partial Gram per chunk of the Gram rule
(``repro.core.kernels.gram_chunks``), and at 60 voxels the real 2048-
column chunk would make every panel one tile of one chunk.  Everything
run through the ``decomp`` fixture therefore shrinks the chunk to 16
columns (``small_gram_chunks``: in-process only, serial reference
included), so a panel is 2 tiles of 2 chunks as the protocol cases
assume; the cases that spawn worker *processes* run the real constant.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.tiled as tiled
from repro.core import FCMAConfig
from repro.core.kernels import GRAM_CHUNK_COLS
from repro.data import SyntheticConfig, generate_dataset
from repro.exec import MasterWorkerExecutor, RunContext, SerialExecutor
from repro.exec.partition import TileTask, partition_tasks, partition_tiles
from repro.parallel.comm import Comm, CommGroup, run_ranks
from repro.parallel.tiled import (
    TAG_ERROR,
    TAG_REQUEST,
    TAG_RESULT,
    TAG_STOP,
    TAG_TASK,
    TaskFailedError,
    WorkPlan,
    master_loop,
    worker_loop,
)
from repro.parallel.transport import TcpListener, TcpTransport

TIMEOUT = 30.0
TILE_COLS = 32  # 60 voxels -> 2 column tiles per row panel, 2 chunks each


class Decomposition:
    """One way of carving ``tiny_dataset`` into a plan, plus how to
    break exactly one of its initially ready items."""

    #: Serial reference scores per task_voxels (same row-panel shapes).
    _serial: dict[int, object] = {}

    def __init__(self, kind: str, dataset, tile_cols: int = TILE_COLS):
        self.kind = kind
        self.dataset = dataset
        self.tile_cols = tile_cols
        #: Kind of the items that are ready before any result arrives.
        self.item = "task" if kind == "rows" else "tile"

    def config(self, task_voxels: int) -> FCMAConfig:
        """5 / 2 / 1 row panels at ``task_voxels`` 12 / 40 / 60.  The
        loose SMO tolerance keeps the real kernels cheap (a few sweeps
        per task) while accuracies still differ voxel to voxel."""
        return FCMAConfig(
            task_voxels=task_voxels, target_block=TILE_COLS, svm_tol=0.1
        )

    def plan(self, task_voxels: int) -> WorkPlan:
        n_voxels = self.dataset.n_voxels
        if self.kind == "rows":
            return WorkPlan(tasks=partition_tasks(n_voxels, task_voxels))
        tiles = partition_tiles(n_voxels, task_voxels, self.tile_cols)
        return WorkPlan(tiles=tiles)

    def n_items(self, n_panels: int) -> int:
        """Row tasks, or 2 column tiles + 1 score per panel."""
        return n_panels if self.kind == "rows" else 3 * n_panels

    def serial(self, task_voxels: int):
        if task_voxels not in self._serial:
            self._serial[task_voxels] = SerialExecutor().run(
                self.dataset, RunContext(self.config(task_voxels))
            )
        return self._serial[task_voxels]

    def lost_with_item_0(self) -> int:
        """Items that can never complete once item 0 fails for good: the
        item itself and, for a tile, its panel's score."""
        return 1 if self.kind == "rows" else 2

    def break_item_0(self, monkeypatch, n_failures: int) -> "Flaky":
        """Make item 0 (the row task / the tile holding voxel 0, column
        0) raise on its first ``n_failures`` attempts."""
        if self.kind == "rows":
            flaky = Flaky(
                tiled.execute_task,
                lambda dataset, assigned, ctx: 0 in assigned,
                n_failures,
            )
            monkeypatch.setattr(tiled, "execute_task", flaky)
        else:
            flaky = Flaky(
                tiled.walk,
                lambda ctx, z, rows, per_subject, c0, *rest: 0 in rows and c0 == 0,
                n_failures,
            )
            monkeypatch.setattr(tiled, "walk", flaky)
        return flaky


class Flaky:
    """Wraps an item body; the first ``n_failures`` calls that hit the
    chosen item raise."""

    def __init__(self, real, hits, n_failures: int):
        self.real = real
        self.hits = hits
        self.remaining = n_failures
        self.failed = 0
        self.lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self.lock:
            if self.remaining > 0 and self.hits(*args):
                self.remaining -= 1
                self.failed += 1
                raise RuntimeError("transient device failure")
        return self.real(*args, **kwargs)


@pytest.fixture(params=["rows", "tiles"])
def decomp(request, tiny_dataset, small_gram_chunks) -> Decomposition:
    return Decomposition(request.param, tiny_dataset)


def assert_bitwise(scores, reference) -> None:
    np.testing.assert_array_equal(scores.voxels, reference.voxels)
    np.testing.assert_array_equal(scores.accuracies, reference.accuracies)


def run_protocol(decomp, task_voxels, n_workers, max_retries=2):
    """Both loops over thread ranks.  Returns what the master produced
    (scores, or the TaskFailedError it raised), items completed per
    worker, the workers' contexts and the plan."""
    plan = decomp.plan(task_voxels)
    config = decomp.config(task_voxels)
    ctxs = [RunContext(config) for _ in range(n_workers)]

    def spmd(comm: Comm):
        if comm.rank == 0:
            try:
                return master_loop(comm, plan, max_retries=max_retries)
            except TaskFailedError as exc:
                return exc
        return worker_loop(comm, decomp.dataset, ctxs[comm.rank - 1])

    results = run_ranks(n_workers + 1, spmd, timeout=TIMEOUT)
    return results[0], results[1:], ctxs, plan


@contextlib.contextmanager
def tcp_ranks(n_workers: int):
    """Rank 0's transport and ``{rank: transport}`` of the workers over
    real loopback sockets — every rank driven by a thread of this
    process, so monkeypatches reach the workers too."""
    listener = TcpListener("127.0.0.1", 0)
    host, port = listener.address
    transports: dict[int, TcpTransport] = {}

    def connect():
        t = TcpTransport.connect(host, port, timeout=TIMEOUT)
        transports[t.rank] = t

    conn_threads = [threading.Thread(target=connect) for _ in range(n_workers)]
    for t in conn_threads:
        t.start()
    master_transport = listener.accept(n_workers, timeout=TIMEOUT)
    for t in conn_threads:
        t.join(TIMEOUT)
    try:
        yield master_transport, transports
    finally:
        master_transport.close()
        for t in transports.values():
            t.close()


class TestProtocol:
    def test_master_on_wrong_rank(self, tiny_dataset):
        plan = Decomposition("rows", tiny_dataset).plan(40)
        with pytest.raises(ValueError, match="rank 0"):
            master_loop(CommGroup(2).comm(1), plan)

    def test_worker_on_rank0(self, tiny_dataset):
        with pytest.raises(ValueError, match="rank 0"):
            worker_loop(
                CommGroup(2).comm(0), tiny_dataset, RunContext(FCMAConfig())
            )

    def test_master_requires_workers(self, tiny_dataset):
        plan = Decomposition("rows", tiny_dataset).plan(40)
        with pytest.raises(ValueError, match="worker"):
            master_loop(CommGroup(1).comm(0), plan)

    def test_max_retries_validation(self, tiny_dataset):
        plan = Decomposition("rows", tiny_dataset).plan(40)
        with pytest.raises(ValueError, match="max_retries"):
            master_loop(CommGroup(2).comm(0), plan, max_retries=0)

    def test_plan_serves_exactly_one_decomposition(self):
        tasks = partition_tasks(60, 40)
        tiles = partition_tiles(60, 40, TILE_COLS)
        with pytest.raises(ValueError, match="exactly one"):
            WorkPlan()
        with pytest.raises(ValueError, match="exactly one"):
            WorkPlan(tasks=tasks, tiles=tiles)

    def test_tags_distinct(self):
        assert len({TAG_REQUEST, TAG_TASK, TAG_RESULT, TAG_STOP, TAG_ERROR}) == 5


class TestRoundTrip:
    @pytest.mark.parametrize("n_workers", [1, 2, 5])
    def test_bitwise_equal_to_serial(self, decomp, n_workers):
        scores, completed, ctxs, plan = run_protocol(decomp, 12, n_workers)
        assert_bitwise(scores, decomp.serial(12))
        assert plan.n_items == decomp.n_items(n_panels=5)
        assert sum(completed) == plan.n_items
        # One task span per work item, whoever ran it.
        assert sum(len(ctx.task_seconds) for ctx in ctxs) == plan.n_items

    def test_more_workers_than_items(self, decomp):
        scores, completed, _, plan = run_protocol(decomp, 60, n_workers=5)
        assert plan.n_items == decomp.n_items(n_panels=1)
        assert sum(completed) == plan.n_items
        assert_bitwise(scores, decomp.serial(60))

    def test_row_tasks_do_not_prefetch(self, tiny_dataset):
        """Overlap accounting is a property of tile/score items
        (``test_tiled.py``): a row task asks for the next one after
        reporting and records nothing outside its own task span."""
        rows = Decomposition("rows", tiny_dataset)
        _, completed, ctxs, _ = run_protocol(rows, 40, n_workers=1)
        assert completed == [2]
        assert "comm.fetch_wait" not in ctxs[0].stages
        assert "overlap_hidden_seconds" not in ctxs[0].counters()


class TestItemFailures:
    def test_transient_failure_retried_bitwise(self, decomp, monkeypatch):
        flaky = decomp.break_item_0(monkeypatch, n_failures=1)
        scores, completed, _, plan = run_protocol(decomp, 12, n_workers=2)
        assert flaky.failed == 1 and flaky.remaining == 0
        assert sum(completed) == plan.n_items  # nothing lost
        assert_bitwise(scores, decomp.serial(12))

    def test_others_keep_pulling_during_retries(self, decomp, monkeypatch):
        """Healthy workers keep pulling while a retry is pending."""
        flaky = decomp.break_item_0(monkeypatch, n_failures=2)
        scores, completed, _, plan = run_protocol(
            decomp, 12, n_workers=4, max_retries=3
        )
        assert flaky.failed == 2
        assert sum(completed) == plan.n_items
        assert_bitwise(scores, decomp.serial(12))

    def test_persistent_failure_names_the_item(self, decomp, monkeypatch):
        """... after exactly ``max_retries`` attempts, and only once
        the healthy items are done."""
        flaky = decomp.break_item_0(monkeypatch, n_failures=99)
        error, completed, _, plan = run_protocol(
            decomp, 12, n_workers=2, max_retries=2
        )
        assert isinstance(error, TaskFailedError)
        assert str(error).startswith(f"{decomp.item} 0 failed after 2 attempts")
        assert "transient device failure" in str(error)
        assert flaky.failed == 2  # exactly max_retries attempts, no more
        # Every item that does not depend on the broken one completed.
        assert sum(completed) == plan.n_items - decomp.lost_with_item_0()

    def test_failure_does_not_kill_the_worker(self, decomp, monkeypatch):
        """The lone worker reports the error and keeps serving."""
        decomp.break_item_0(monkeypatch, n_failures=99)
        error, completed, _, plan = run_protocol(
            decomp, 12, n_workers=1, max_retries=1
        )
        assert isinstance(error, TaskFailedError)
        assert completed == [plan.n_items - decomp.lost_with_item_0()]


class TestRequeue:
    """Driven by hand over two worker comms: requests and failure
    reports only, then real worker loops finish the run — so the
    schedule under test still has to produce the serial bits."""

    @staticmethod
    def _start_master(decomp, task_voxels, max_retries):
        group = CommGroup(3, timeout=TIMEOUT)
        plan = decomp.plan(task_voxels)
        result: list = []
        master = threading.Thread(
            target=lambda: result.append(
                master_loop(group.comm(0), plan, max_retries=max_retries)
            )
        )
        master.start()
        return group.comm(1), group.comm(2), master, result

    @staticmethod
    def _draw(worker: Comm) -> tuple[str, int]:
        worker.send(None, 0, TAG_REQUEST)
        payload = worker.recv(source=0, tag=TAG_TASK)[2]
        return payload[0], payload[1]

    @staticmethod
    def _finish(decomp, task_voxels, workers, master, result):
        """Hand both comms to real worker loops and check the bits."""
        config = decomp.config(task_voxels)
        threads = [
            threading.Thread(
                target=worker_loop, args=(w, decomp.dataset, RunContext(config))
            )
            for w in workers
        ]
        for t in threads:
            t.start()
        for t in [*threads, master]:
            t.join(TIMEOUT)
        assert not any(t.is_alive() for t in [*threads, master])
        assert len(result) == 1
        assert_bitwise(result[0], decomp.serial(task_voxels))

    def test_reverse_order_failures_redispatch_sorted(self, decomp):
        """Two workers fail and the reports arrive in *reverse* item
        order; the master re-queues sorted, so the next request gets
        the lowest id — not the most recently failed one — and both
        re-queued items go out before any fresh one."""
        w1, w2, master, result = self._start_master(decomp, 12, max_retries=3)
        try:
            first, second = self._draw(w1), self._draw(w2)
            assert (first, second) == ((decomp.item, 0), (decomp.item, 1))
            w2.send((second, "boom"), 0, TAG_ERROR)
            w1.send((first, "boom"), 0, TAG_ERROR)
            assert self._draw(w1) == first
            assert self._draw(w2) == second
            # Hand the two items back once more so the real loops below
            # start from a clean slate (third and last attempt).
            w1.send((first, "boom"), 0, TAG_ERROR)
            w2.send((second, "boom"), 0, TAG_ERROR)
        finally:
            self._finish(decomp, 12, (w1, w2), master, result)

    def test_parked_worker_absorbs_a_requeue(self, decomp):
        """A worker that asks while everything is in flight elsewhere is
        parked, not stopped, and gets the next re-queued item."""
        w1, w2, master, result = self._start_master(decomp, 60, max_retries=3)
        try:
            # w1 draws every initially ready item (1 task / 2 tiles).
            n_ready = 1 if decomp.kind == "rows" else 2
            drawn = [self._draw(w1) for _ in range(n_ready)]
            # Nothing is ready, work is in flight: w2 is parked — no
            # reply — until w1 reports a failure.
            w2.send(None, 0, TAG_REQUEST)
            w1.send((drawn[0], "boom"), 0, TAG_ERROR)
            payload = w2.recv(source=0, tag=TAG_TASK)[2]
            assert (payload[0], payload[1]) == drawn[0]
            # Return everything so the real loops can finish the run.
            w2.send((drawn[0], "boom"), 0, TAG_ERROR)
            for key in drawn[1:]:
                w1.send((key, "boom"), 0, TAG_ERROR)
        finally:
            self._finish(decomp, 60, (w1, w2), master, result)


class TestTcpWorkerLoss:
    def test_killed_mid_item_retried_on_survivor(self, decomp):
        """Worker 2 accepts an item and then drops its socket without
        the BYE handshake (a killed process).  The master re-queues the
        in-flight item on PEER_LOST without charging its retry budget;
        worker 1 finishes everything and the result is bitwise-equal to
        the failure-free serial run."""
        plan = decomp.plan(40)
        config = decomp.config(40)
        result: list = []
        errors: list[BaseException] = []
        survivor_done: list[int] = []

        with tcp_ranks(2) as (master_transport, transports):

            def run_master():
                try:
                    # max_retries=1: the loss must not be charged as a failure.
                    result.append(
                        master_loop(Comm(master_transport, 0), plan, max_retries=1)
                    )
                except BaseException as exc:  # pragma: no cover - debug aid
                    errors.append(exc)

            def run_survivor():
                survivor_done.append(
                    worker_loop(
                        Comm(transports[1], 1), decomp.dataset, RunContext(config)
                    )
                )

            master = threading.Thread(target=run_master)
            master.start()
            victim = Comm(transports[2], 2)
            victim.send(None, 0, TAG_REQUEST)
            _, tag, payload = victim.recv(source=0)
            assert tag == TAG_TASK
            assert payload[0] == decomp.item
            sock = transports[2]._master_sock
            assert sock is not None
            sock.close()

            survivor = threading.Thread(target=run_survivor)
            survivor.start()
            survivor.join(TIMEOUT)
            master.join(TIMEOUT)
            assert not errors, errors
            assert not master.is_alive() and not survivor.is_alive()

        # The survivor completed every item, including the re-queued one.
        assert survivor_done == [plan.n_items]
        assert_bitwise(result[0], decomp.serial(40))


class TestPartialGrams:
    """What is specific to a tiles plan: tiles return per-chunk partial
    Grams and the plan adds them in column order — the serial Gram rule
    — whatever the tile width, transport or arrival order."""

    @pytest.mark.parametrize("n_workers", [1, 2, 5])
    @pytest.mark.parametrize("tile_cols", [16, 32, 48])  # 1, 2, 3 chunks
    def test_tile_width_does_not_move_a_bit(
        self, tiny_dataset, small_gram_chunks, tile_cols, n_workers
    ):
        tiles = Decomposition("tiles", tiny_dataset, tile_cols)
        scores, completed, _, plan = run_protocol(tiles, 40, n_workers)
        assert sum(completed) == plan.n_items == 2 * (-(-60 // tile_cols) + 1)
        assert_bitwise(scores, tiles.serial(40))

    @pytest.mark.parametrize("tile_cols", [16, 32, 48])
    def test_over_loopback_sockets(
        self, tiny_dataset, small_gram_chunks, tile_cols
    ):
        tiles = Decomposition("tiles", tiny_dataset, tile_cols)
        plan, config = tiles.plan(12), tiles.config(12)
        with tcp_ranks(2) as (master_transport, transports):
            workers = [
                threading.Thread(
                    target=worker_loop,
                    args=(Comm(t, rank), tiny_dataset, RunContext(config)),
                )
                for rank, t in transports.items()
            ]
            for t in workers:
                t.start()
            scores = master_loop(Comm(master_transport, 0), plan)
            for t in workers:
                t.join(TIMEOUT)
        assert_bitwise(scores, tiles.serial(12))

    def test_worker_processes_multi_chunk_multi_tile(self):
        """The real constant across a real process boundary: at
        N > 2 chunks a panel is 2 tiles, the first of 2 chunks."""
        n_voxels = 2 * GRAM_CHUNK_COLS + 400
        dataset = generate_dataset(
            SyntheticConfig(
                n_voxels=n_voxels, n_subjects=2, epochs_per_subject=4,
                epoch_length=6, n_informative=8, seed=3, name="wide-tiny",
            )
        )
        config = FCMAConfig(task_voxels=3, svm_tol=0.1)
        voxels = np.array([5, 7, GRAM_CHUNK_COLS, n_voxels - 1, 0])
        serial = SerialExecutor().run(dataset, RunContext(config), voxels)
        ctx = RunContext(config)
        scores = MasterWorkerExecutor(
            n_workers=2, transport="tcp", partition="tiles"
        ).run(dataset, ctx, voxels)
        assert_bitwise(scores, serial)
        assert ctx.metadata["tile_cols"] == 2 * GRAM_CHUNK_COLS
        assert ctx.metadata["n_tasks"] == 2 * (2 + 1)  # panels x (tiles + score)
        # Partial Grams crossed the socket, not correlation blocks —
        # nor the dataset: the spawned ranks mapped rank 0's windows.
        received = ctx.metadata["counters"]["comm.bytes_recv"]
        block_bytes = voxels.size * dataset.n_epochs * n_voxels * 4
        assert received < 0.25 * block_bytes
        assert received < dataset.nbytes()

    def test_non_chunk_tile_fails_typed(self, tiny_dataset):
        """Under the real rule 60 columns are one chunk, so a 32-column
        tile cuts it: the worker refuses, the master names the tile."""
        tiles = Decomposition("tiles", tiny_dataset)
        error, completed, _, _ = run_protocol(tiles, 60, n_workers=1)
        assert isinstance(error, TaskFailedError)
        assert str(error).startswith("tile 0 failed after 2 attempts")
        assert "not whole Gram chunks" in str(error)
        assert completed == [0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_arrival_order_with_duplicates_sums_in_column_order(self, data):
        rows = np.arange(data.draw(st.integers(1, 3)), dtype=np.int64)
        n_epochs = data.draw(st.integers(1, 4))
        chunks_per_tile = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        tiles, payloads, c0 = [], [], 0
        for index, n_chunks in enumerate(chunks_per_tile):
            c1 = c0 + 10 * n_chunks
            tiles.append(TileTask(index, 0, rows, c0, c1))
            # Wide dynamic range, so a different order of additions
            # would round differently.
            partials = rng.standard_normal(
                (n_chunks, rows.size, n_epochs, n_epochs)
            ) * 10.0 ** rng.integers(-3, 4, (n_chunks, 1, 1, 1))
            payloads.append(("tile", index, 0, c0, c1, partials.astype(np.float32)))
            c0 = c1
        expected = None
        for payload in payloads:
            for chunk in payload[5]:
                expected = chunk.copy() if expected is None else expected + chunk

        arrivals = payloads + data.draw(st.lists(st.sampled_from(payloads), max_size=4))
        arrivals = data.draw(st.permutations(arrivals))
        plan = WorkPlan(tiles=tiles)
        unlocked = [key for payload in arrivals for key in plan.complete(payload)]
        assert unlocked == [("score", 0)]
        _, _, score_rows, kernels = plan.message(("score", 0))
        np.testing.assert_array_equal(score_rows, rows)
        assert kernels.dtype == np.float32
        assert kernels.tobytes() == expected.tobytes()


class TestEndToEnd:
    def test_matches_serial(self, tiny_dataset, fast_fcma_config):
        serial = SerialExecutor().run(tiny_dataset, RunContext(fast_fcma_config))
        via_mpi = MasterWorkerExecutor(n_workers=3).run(
            tiny_dataset, RunContext(fast_fcma_config)
        )
        np.testing.assert_array_equal(serial.voxels, via_mpi.voxels)
        np.testing.assert_allclose(serial.accuracies, via_mpi.accuracies)

    def test_explicit_voxel_subset(self, tiny_dataset, fast_fcma_config):
        voxels = np.array([2, 4, 8, 16])
        scores = MasterWorkerExecutor(n_workers=2).run(
            tiny_dataset, RunContext(fast_fcma_config), voxels=voxels
        )
        assert set(scores.voxels.tolist()) == {2, 4, 8, 16}

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            MasterWorkerExecutor(n_workers=0)
