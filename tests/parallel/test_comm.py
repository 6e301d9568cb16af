"""Tests for the MPI-like communicator."""

import pytest

from repro.parallel.comm import ANY_SOURCE, ANY_TAG, Comm, CommGroup, run_ranks


class TestPointToPoint:
    def test_send_recv(self):
        group = CommGroup(2)
        a, b = group.comm(0), group.comm(1)
        a.send({"x": 1}, dest=1, tag=5)
        src, tag, obj = b.recv()
        assert (src, tag, obj) == (0, 5, {"x": 1})

    def test_selective_by_tag(self):
        group = CommGroup(2)
        a, b = group.comm(0), group.comm(1)
        a.send("first", 1, tag=1)
        a.send("second", 1, tag=2)
        _, _, obj = b.recv(tag=2)
        assert obj == "second"
        _, _, obj = b.recv(tag=1)
        assert obj == "first"

    def test_selective_by_source(self):
        group = CommGroup(3)
        group.comm(0).send("from0", 2, tag=0)
        group.comm(1).send("from1", 2, tag=0)
        src, _, obj = group.comm(2).recv(source=1)
        assert (src, obj) == (1, "from1")

    def test_order_preserved_per_pair(self):
        group = CommGroup(2)
        a, b = group.comm(0), group.comm(1)
        for i in range(5):
            a.send(i, 1, tag=3)
        received = [b.recv(tag=3)[2] for _ in range(5)]
        assert received == list(range(5))

    def test_stash_preserves_unmatched(self):
        group = CommGroup(2)
        a, b = group.comm(0), group.comm(1)
        a.send("x", 1, tag=1)
        a.send("y", 1, tag=2)
        assert b.recv(tag=2)[2] == "y"
        # the stashed tag-1 message is still deliverable via wildcard
        assert b.recv(source=ANY_SOURCE, tag=ANY_TAG)[2] == "x"

    def test_bad_dest(self):
        group = CommGroup(2)
        with pytest.raises(ValueError, match="dest"):
            group.comm(0).send("x", 5)

    def test_reserved_tag_rejected(self):
        group = CommGroup(2)
        with pytest.raises(ValueError, match="tags"):
            group.comm(0).send("x", 1, tag=2_000_000)

    def test_recv_timeout(self):
        group = CommGroup(2, timeout=0.05)
        with pytest.raises(TimeoutError):
            group.comm(0).recv()


class TestCollectives:
    def test_bcast(self):
        def spmd(comm: Comm):
            return comm.bcast("payload" if comm.rank == 0 else None)

        assert run_ranks(4, spmd) == ["payload"] * 4

    def test_bcast_nonzero_root(self):
        def spmd(comm: Comm):
            return comm.bcast("from2" if comm.rank == 2 else None, root=2)

        assert run_ranks(4, spmd) == ["from2"] * 4


class TestRunRanks:
    def test_returns_in_rank_order(self):
        assert run_ranks(5, lambda c: c.rank) == [0, 1, 2, 3, 4]

    def test_rank_error_propagates(self):
        def spmd(comm: Comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_ranks(2, spmd)

    def test_earliest_failure_wins_and_rank_0_hears_of_it_at_once(self):
        """A rank thread that dies is a lost peer: rank 0 gets
        TAG_PEER_LOST now, not a timeout later, and what ``run_ranks``
        raises is the death, not its consequence on a lower rank."""
        import time

        def spmd(comm: Comm):
            if comm.rank == 1:
                raise MemoryError("no room")
            src, tag, _ = comm.recv()
            raise RuntimeError(f"lost rank {src} (tag {tag})")

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 1 failed") as excinfo:
            run_ranks(2, spmd, timeout=30.0)
        assert time.monotonic() - started < 5.0
        assert isinstance(excinfo.value.__cause__, MemoryError)

    def test_size_properties(self):
        def spmd(comm: Comm):
            return (comm.rank, comm.size)

        assert run_ranks(3, spmd) == [(0, 3), (1, 3), (2, 3)]

    def test_group_validation(self):
        with pytest.raises(ValueError):
            CommGroup(0)
        with pytest.raises(ValueError):
            CommGroup(2).comm(5)
