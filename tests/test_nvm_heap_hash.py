"""Unit tests for the blob heap."""


from repro.nvm.pheap import PHeap
from repro.nvm.pool import PMemMode, PMemPool


class TestPHeap:
    def test_bytes_roundtrip(self, pool):
        heap = PHeap(pool)
        off = heap.put(b"\x00\x01binary\xff")
        assert heap.get(off) == b"\x00\x01binary\xff"

    def test_empty_blob(self, pool):
        heap = PHeap(pool)
        off = heap.put(b"")
        assert heap.get(off) == b""

    def test_string_roundtrip(self, pool):
        heap = PHeap(pool)
        off = heap.put_str("schnörkel-ünïcode ✓")
        assert heap.get_str(off) == "schnörkel-ünïcode ✓"

    def test_many_blobs_distinct(self, pool):
        heap = PHeap(pool)
        offs = [heap.put_str(f"value-{i}") for i in range(200)]
        assert len(set(offs)) == 200
        for i, off in enumerate(offs):
            assert heap.get_str(off) == f"value-{i}"

    def test_counters(self, pool):
        heap = PHeap(pool)
        heap.put(b"abc")
        assert heap.blobs_written == 1
        assert heap.bytes_written == 7  # 4B length + 3B payload

    def test_block_runs_to_the_alignment(self, pool):
        heap = PHeap(pool)
        for payload, nbytes in ((b"", 8), (b"abcd", 8), (b"abcde", 16)):
            off = heap.put(payload)
            assert heap.block(off) == (off, nbytes)

    def test_survives_clean_reopen(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024)
        offs = [PHeap(pool).put_str(f"kept-{i}") for i in range(3)]
        pool.close()
        pool = PMemPool.open(pool_dir)
        heap = PHeap(pool)
        assert [heap.get_str(off) for off in offs] == ["kept-0", "kept-1", "kept-2"]
        pool.close()

    def test_survives_crash_when_flushed(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024, mode=PMemMode.STRICT)
        heap = PHeap(pool)
        off = heap.put_str("durable")
        pool.crash()
        pool = PMemPool.open(pool_dir, mode=PMemMode.STRICT)
        assert PHeap(pool).get_str(off) == "durable"
        pool.close()
