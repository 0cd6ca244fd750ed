"""Unit tests for the mini-HDFS block store, including fault injection."""

import random

import pytest

from repro.dataplat.blockstore import BlockInfo, BlockStore, _digest
from repro.errors import StorageError


@pytest.fixture()
def store() -> BlockStore:
    return BlockStore(num_nodes=3, replication=2, block_size=16)


class TestBasics:
    def test_write_read_round_trip(self, store):
        payload = b"hello world" * 10
        store.write("/a/b", payload)
        assert store.read("/a/b") == payload

    def test_empty_payload(self, store):
        store.write("/empty", b"")
        assert store.read("/empty") == b""

    def test_status_reports_blocks(self, store):
        store.write("/f", b"x" * 40)
        status = store.status("/f")
        assert status.length == 40
        assert status.num_blocks == 3  # ceil(40 / 16)
        assert all(len(b.replicas) == 2 for b in status.blocks)

    def test_missing_file(self, store):
        with pytest.raises(StorageError):
            store.read("/nope")

    def test_exists(self, store):
        assert not store.exists("/f")
        store.write("/f", b"x")
        assert store.exists("/f")

    def test_delete_frees_space(self, store):
        store.write("/f", b"x" * 100)
        used = store.physical_bytes
        assert used > 0
        store.delete("/f")
        assert store.physical_bytes < used
        assert not store.exists("/f")

    def test_overwrite(self, store):
        store.write("/f", b"one")
        store.write("/f", b"two")
        assert store.read("/f") == b"two"

    def test_rename_replaces_destination(self, store):
        store.write("/f", b"one")
        store.write("/g", b"two")
        store.rename("/g", "/f")
        assert store.read("/f") == b"two"
        assert not store.exists("/g")

    def test_list_files(self, store):
        store.write("/a/x", b"1")
        store.write("/a/y", b"2")
        store.write("/b/z", b"3")
        assert store.list_files("/a") == ["/a/x", "/a/y"]

    def test_replication_accounting(self, store):
        store.write("/f", b"x" * 32)
        assert store.physical_bytes == 2 * store.total_bytes

    @pytest.mark.parametrize("path", ["relative", "/trailing/", "/dou//ble"])
    def test_invalid_paths(self, store, path):
        with pytest.raises(StorageError):
            store.write(path, b"x")


class TestConstruction:
    def test_replication_capped_at_nodes(self):
        store = BlockStore(num_nodes=2, replication=5)
        store.write("/f", b"x")
        assert len(store.status("/f").blocks[0].replicas) == 2

    def test_zero_nodes_rejected(self):
        with pytest.raises(StorageError):
            BlockStore(num_nodes=0)

    def test_bad_block_size(self):
        with pytest.raises(StorageError):
            BlockStore(block_size=0)


class TestFaultInjection:
    def test_read_survives_single_node_death(self, store):
        payload = b"replicated data" * 5
        store.write("/f", payload)
        store.kill_node(0)
        assert store.read("/f") == payload

    def test_re_replication_restores_factor(self, store):
        store.write("/f", b"x" * 64)
        store.kill_node(0)
        created = store.re_replicate()
        # Every block that lost a replica on node 0 got a new one.
        status = store.status("/f")
        for block in status.blocks:
            live = [n for n in block.replicas if n != 0]
            assert len(live) >= 2
        assert created >= 0

    def test_read_after_kill_and_rereplicate_and_second_kill(self, store):
        payload = b"y" * 48
        store.write("/f", payload)
        store.kill_node(0)
        store.re_replicate()
        store.kill_node(1)
        assert store.read("/f") == payload

    def test_total_loss_raises(self):
        store = BlockStore(num_nodes=2, replication=1, block_size=8)
        store.write("/f", b"z" * 8)
        status = store.status("/f")
        only_replica = status.blocks[0].replicas[0]
        store.kill_node(only_replica)
        with pytest.raises(StorageError):
            store.read("/f")
        with pytest.raises(StorageError):
            store.re_replicate()

    def test_revive_node(self, store):
        store.write("/f", b"q" * 32)
        store.kill_node(0)
        store.revive_node(0)
        assert store.read("/f") == b"q" * 32

    def test_corrupt_replica_falls_back_to_healthy_one(self, store):
        payload = b"checksummed" * 4
        store.write("/f", payload)
        status = store.status("/f")
        store.corrupt_block("/f", 0, status.blocks[0].replicas[0])
        assert store.read("/f") == payload

    def test_corrupt_all_replicas_fails(self, store):
        store.write("/f", b"data!" * 4)
        status = store.status("/f")
        for node_id in status.blocks[0].replicas:
            store.corrupt_block("/f", 0, node_id)
        with pytest.raises(StorageError):
            store.read("/f")

    def test_kill_unknown_node(self, store):
        with pytest.raises(StorageError):
            store.kill_node(99)

    def test_corrupt_bad_block_index(self, store):
        store.write("/f", b"x")
        with pytest.raises(StorageError):
            store.corrupt_block("/f", 5, 0)

    def test_corrupt_replicas_are_counted(self, store):
        payload = b"checksummed" * 4
        store.write("/f", payload)
        assert store.corrupt_replicas_detected == 0
        status = store.status("/f")
        store.corrupt_block("/f", 0, status.blocks[0].replicas[0])
        assert store.read("/f") == payload
        # The bad copy was detected (and counted), not silently skipped.
        assert store.corrupt_replicas_detected == 1
        assert store.health.corrupt_replicas_detected == 1

    def test_re_replicate_reports_every_lost_block(self):
        store = BlockStore(num_nodes=3, replication=1, block_size=4)
        store.write("/a", b"aaaabbbb")  # two blocks, spread over two nodes
        store.write("/b", b"cccc")
        victims = {
            node for p in ("/a", "/b") for b in store.status(p).blocks
            for node in b.replicas
        }
        for node_id in victims:
            store.kill_node(node_id)
        with pytest.raises(StorageError) as err:
            store.re_replicate()
        # One exception naming all three lost blocks, not just the first.
        message = str(err.value)
        assert "3 block(s) lost all replicas" in message
        assert "/a" in message and "/b" in message


class _RecomputingStore(BlockStore):
    """Oracle balancer: sizes every node by walking its blocks, as the
    store did before ``used_bytes`` became a running counter."""

    def _store_block(self, chunk: bytes) -> BlockInfo:
        block_id = f"blk_{self._next_block:012d}_{_digest(chunk)}"
        self._next_block += 1
        live = [n for n in self._nodes if n.alive]
        live.sort(key=lambda n: sum(len(b) for b in n.blocks.values()))
        targets = live[: self._replication]
        for node in targets:
            node.store(block_id, chunk)
        return BlockInfo(block_id, len(chunk), tuple(n.node_id for n in targets))


def _replica_map(store: BlockStore) -> dict:
    return {
        path: [(b.block_id, b.replicas) for b in store.status(path).blocks]
        for path in store.list_files()
    }


class TestPlacementAccounting:
    """``used_bytes`` is a running counter; it must track every mutation a
    node sees, and the balancer must place exactly as a recomputing one."""

    @staticmethod
    def _step(rng: random.Random, store: BlockStore) -> None:
        """One seeded mutation; draws the same numbers on twin stores."""
        files = store.list_files()
        dead = [n.node_id for n in store._nodes if not n.alive]
        op = rng.choice(
            ["write", "write", "overwrite", "delete", "rename", "corrupt",
             "kill", "heal", "fsync", "crash"]
        )
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 90)))
        pick = rng.randrange(1 << 30)
        if op == "write":
            store.write(f"/d{pick % 3}/f{pick % 40}", payload)
        elif op == "fsync":
            store.fsync_all()
        elif op == "crash":
            store.crash()
        elif op == "kill" and not dead:
            store.kill_node(pick % len(store._nodes))
        elif op == "heal" and dead:
            store.re_replicate()
            store.revive_node(dead[0])
        elif not files:
            return
        elif op == "overwrite":
            store.write(files[pick % len(files)], payload)
        elif op == "delete":
            store.delete(files[pick % len(files)])
        elif op == "rename":
            store.rename(files[pick % len(files)], files[(pick >> 8) % len(files)])
        elif op == "corrupt" and not dead:
            path = files[pick % len(files)]
            # The first replica is the one a read tries first, so the read
            # notices the damage and rewrites it from the second.
            store.corrupt_block(path, 0, store.status(path).blocks[0].replicas[0])
            store.read(path)

    @pytest.mark.parametrize("seed", range(6))
    def test_counter_matches_recomputed_sizes_and_oracle_placement(self, seed):
        config = dict(num_nodes=4, replication=2, block_size=16, volatile=True)
        store, oracle = BlockStore(**config), _RecomputingStore(**config)
        rngs = random.Random(seed), random.Random(seed)
        for _ in range(400):
            self._step(rngs[0], store)
            self._step(rngs[1], oracle)
            sizes = [sum(len(b) for b in n.blocks.values()) for n in store._nodes]
            assert [n.used_bytes for n in store._nodes] == sizes
            assert store.physical_bytes == sum(sizes) == oracle.physical_bytes
        assert _replica_map(store) == _replica_map(oracle)
        assert store.health.replicas_repaired > 0
        assert store.health.replicas_recreated > 0

    def test_prefix_listing_matches_a_full_walk(self, store):
        paths = ["/a", "/a/x", "/a/y", "/ab", "/a0", "/b/z", "/a/x/y"]
        for path in paths:
            store.write(path, b"1")
        store.rename("/a/y", "/c/y")
        store.delete("/ab")
        remaining = sorted(set(paths) - {"/a/y", "/ab"} | {"/c/y"})
        for prefix in ["/", "/a", "/a/", "/a/x", "/b", "/c/", "/zz", ""]:
            assert store.list_files(prefix) == [
                p for p in remaining if p.startswith(prefix)
            ]
