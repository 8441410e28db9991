"""Unit tests for checkpoint snapshot/restore and the file format."""

import pytest

from repro.storage.backend import VolatileBackend
from repro.storage.mvcc import INFINITY_CID
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.wal.checkpoint import (
    CheckpointChain,
    read_manifest,
    read_segment,
    restore_table,
    snapshot_table,
    write_manifest,
    write_segment,
)

from tests.conftest import commit_rows, place_rows

SCHEMA = Schema.of(id=DataType.INT64, name=DataType.STRING, amount=DataType.FLOAT64)


def _populated_table(backend, rows=25):
    table = Table.create(3, "snap", SCHEMA, backend)
    commit_rows(
        table,
        [[i, f"name{i % 4}", None if i % 7 == 0 else i * 1.5] for i in range(rows)],
        cid=[1 + i % 3 for i in range(rows)],
    )
    return table


class TestSnapshotRestore:
    def test_roundtrip_in_memory(self):
        backend = VolatileBackend()
        table = _populated_table(backend)
        snap = snapshot_table(table)
        restored = restore_table(snap, VolatileBackend())
        assert restored.name == "snap"
        assert restored.table_id == 3
        assert restored.delta_row_count == 25
        for col in range(3):
            assert restored.delta.decode_column(col) == table.delta.decode_column(col)
        assert list(restored.delta.mvcc.begin_array()) == list(
            table.delta.mvcc.begin_array()
        )

    def test_roundtrip_with_main(self):
        from tests.conftest import merge_table

        backend = VolatileBackend()
        table = _populated_table(backend)
        table.main, table.delta = merge_table(table, backend)
        place_rows(table.delta, [[99, "fresh", 1.0]], tid=5)
        snap = snapshot_table(table)
        restored = restore_table(snap, VolatileBackend())
        assert restored.main_row_count == 25
        assert restored.delta_row_count == 1
        assert restored.main.decode_column(0) == table.main.decode_column(0)
        # Uncommitted delta garbage is preserved verbatim (physical layout).
        assert restored.delta.mvcc.get_begin(0) == INFINITY_CID

    def test_chain_roundtrip(self, tmp_path):
        backend = VolatileBackend()
        table = _populated_table(backend)
        chain = CheckpointChain(str(tmp_path / "checkpoints"))
        _, nbytes = chain.publish(
            [snapshot_table(table)], {}, last_cid=9, lsn=1234, next_table_id=4
        )
        assert nbytes > 0
        state, snapshots, bytes_read = chain.load()
        assert bytes_read == nbytes
        assert state.last_cid == 9
        assert state.lsn == 1234
        assert state.next_table_id == 4
        restored = restore_table(snapshots[0], VolatileBackend())
        assert restored.delta.decode_column(1) == table.delta.decode_column(1)

    def test_multiple_tables(self, tmp_path):
        backend = VolatileBackend()
        t1 = _populated_table(backend, rows=5)
        t2 = Table.create(7, "other", Schema.of(x=DataType.INT64), backend)
        place_rows(t2.delta, [[1]])
        path = str(tmp_path / "seg.ckpt")
        write_segment(path, [snapshot_table(t1), snapshot_table(t2)])
        loaded = read_segment(path)
        assert {tid: s.name for tid, s in loaded.items()} == {
            3: "snap",
            7: "other",
        }

    def test_corrupt_segment_rejected(self, tmp_path):
        backend = VolatileBackend()
        path = str(tmp_path / "seg.ckpt")
        write_segment(path, [snapshot_table(_populated_table(backend, 3))])
        with open(path, "r+b") as f:
            f.seek(60)
            f.write(b"\xff\xff")
        with pytest.raises(ValueError, match="CRC"):
            read_segment(path)

    def test_corrupt_manifest_rejected(self, tmp_path):
        path = str(tmp_path / "manifest.ckpt")
        write_manifest(path, 1, 0, 8, {3: 0, 7: 0}, {3: ["id", "v"]})
        want = (1, 0, 8, {3: 0, 7: 0}, {3: ["id", "v"], 7: []})
        assert read_manifest(path) == want
        with open(path, "r+b") as f:
            f.seek(50)
            f.write(b"\xff\xff")
        with pytest.raises(ValueError, match="CRC"):
            read_manifest(path)

    @pytest.mark.parametrize("reader", [read_segment, read_manifest])
    def test_wrong_magic_rejected(self, tmp_path, reader):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "wb") as f:
            f.write(b"\x00" * 100)
        with pytest.raises(ValueError, match="is not a checkpoint"):
            reader(path)

    def test_a_segment_is_not_a_manifest(self, tmp_path):
        path = str(tmp_path / "seg.ckpt")
        write_segment(path, [snapshot_table(_populated_table(VolatileBackend(), 3))])
        with pytest.raises(ValueError, match="not a checkpoint manifest"):
            read_manifest(path)

    def test_empty_table_snapshot(self, tmp_path):
        backend = VolatileBackend()
        table = Table.create(1, "empty", SCHEMA, backend)
        path = str(tmp_path / "seg.ckpt")
        write_segment(path, [snapshot_table(table)])
        restored = restore_table(read_segment(path)[1], VolatileBackend())
        assert restored.row_count == 0

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        import os

        backend = VolatileBackend()
        chain = CheckpointChain(str(tmp_path / "checkpoints"))
        chain.publish([snapshot_table(_populated_table(backend, 2))], {}, 0, 0, 2)
        assert sorted(os.listdir(chain.directory)) == [
            "manifest-00000000.ckpt",
            "seg-00000000.ckpt",
        ]


class TestPin:
    """Shipping a chain = pinning its newest link somewhere GC-proof."""

    def _chain(self, tmp_path, links=3):
        backend = VolatileBackend()
        table = _populated_table(backend, rows=4)
        other = Table.create(7, "other", Schema.of(x=DataType.INT64), backend)
        chain = CheckpointChain(str(tmp_path / "checkpoints"))
        state, _ = chain.publish(
            [snapshot_table(table), snapshot_table(other)], {}, 1, 10, 8
        )
        for i in range(1, links):
            # ``other`` stays clean: carried by reference, link after link.
            state, _ = chain.publish(
                [snapshot_table(table)], {7: state.mapping[7]}, 1 + i, 10 * (i + 1), 8
            )
        return chain, state

    def test_pin_holds_exactly_the_newest_link(self, tmp_path):
        import os

        chain, state = self._chain(tmp_path)
        dest = str(tmp_path / "ship")
        pinned = chain.pin(dest)
        assert pinned == state
        assert sorted(os.listdir(dest)) == [
            "manifest-00000002.ckpt",
            "seg-00000000.ckpt",  # the carried clean table
            "seg-00000002.ckpt",
        ]
        loaded_state, snapshots, _ = CheckpointChain(dest).load()
        assert loaded_state == state
        assert sorted(s.name for s in snapshots) == ["other", "snap"]

    def test_pin_survives_source_gc(self, tmp_path):
        chain, state = self._chain(tmp_path, links=2)
        dest = str(tmp_path / "ship")
        chain.pin(dest)
        backend = VolatileBackend()
        for i in range(4):  # every pinned file is superseded and collected
            chain.publish(
                [
                    snapshot_table(_populated_table(backend, rows=2)),
                    snapshot_table(
                        Table.create(7, "other", Schema.of(x=DataType.INT64), backend)
                    ),
                ],
                {},
                50 + i,
                500 + i,
                8,
            )
        assert chain.state().seq > state.seq + 2
        loaded_state, snapshots, _ = CheckpointChain(dest).load()
        assert loaded_state == state
        assert len(snapshots) == 2

    def test_pin_replaces_previous_contents(self, tmp_path):
        import os

        chain, _ = self._chain(tmp_path, links=1)
        dest = str(tmp_path / "ship")
        os.makedirs(dest)
        with open(os.path.join(dest, "manifest-00000099.ckpt"), "wb") as f:
            f.write(b"stale")
        chain.pin(dest)
        assert sorted(os.listdir(dest)) == [
            "manifest-00000000.ckpt",
            "seg-00000000.ckpt",
        ]

    def test_pin_of_empty_chain_is_none(self, tmp_path):
        assert CheckpointChain(str(tmp_path / "none")).pin(str(tmp_path / "d")) is None

    def test_pin_onto_itself_is_refused(self, tmp_path):
        chain, state = self._chain(tmp_path, links=1)
        with pytest.raises(ValueError, match="onto itself"):
            chain.pin(chain.directory + "/")
        assert chain.state() == state  # nothing was deleted

    def test_failed_pin_leaves_dest_untouched(self, tmp_path):
        """Every manifest's segments are gone: no link can be installed,
        and what ``dest`` held before is still there, whole."""
        import os

        chain, _ = self._chain(tmp_path, links=2)
        dest = str(tmp_path / "ship")
        chain.pin(dest)
        before = sorted(os.listdir(dest))
        for name in os.listdir(chain.directory):
            if name.startswith("seg-"):
                os.remove(os.path.join(chain.directory, name))
        assert chain.pin(dest) is None
        assert sorted(os.listdir(dest)) == before
        assert sorted(os.listdir(tmp_path)) == ["checkpoints", "ship"]
