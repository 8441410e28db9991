"""Unit tests for the blob heap and the persistent hash multimap."""


from repro.nvm.pheap import PHeap
from repro.nvm.phash import PHashMap
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

    def test_survives_crash_when_flushed(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024, mode=PMemMode.STRICT)
        heap = PHeap(pool)
        off = heap.put_str("durable")
        pool.crash()
        pool = PMemPool.open(pool_dir, mode=PMemMode.STRICT)
        assert PHeap(pool).get_str(off) == "durable"
        pool.close()


class TestPHashMap:
    def test_empty_lookup(self, pool):
        m = PHashMap.create(pool)
        assert m.get_all(42) == []
        assert m.get_first(42) is None
        assert len(m) == 0

    def test_insert_and_lookup(self, pool):
        m = PHashMap.create(pool)
        m.insert(1, 100)
        m.insert(2, 200)
        assert m.get_first(1) == 100
        assert m.get_first(2) == 200
        assert len(m) == 2

    def test_multimap_duplicates(self, pool):
        m = PHashMap.create(pool)
        for v in (5, 6, 7):
            m.insert(9, v)
        assert sorted(m.get_all(9)) == [5, 6, 7]

    def test_resize_preserves_entries(self, pool):
        m = PHashMap.create(pool, capacity=8)
        for i in range(500):
            m.insert(i, i * 2)
        assert len(m) == 500
        assert m.capacity > 8
        for i in range(0, 500, 37):
            assert m.get_first(i) == i * 2

    def test_remove_one(self, pool):
        m = PHashMap.create(pool)
        m.insert(1, 10)
        m.insert(1, 11)
        assert m.remove_one(1, 10)
        assert m.get_all(1) == [11]
        assert not m.remove_one(1, 10)
        assert len(m) == 1

    def test_remove_missing_key(self, pool):
        m = PHashMap.create(pool)
        assert not m.remove_one(77, 1)

    def test_lookup_after_tombstone_probe_chain(self, pool):
        # Insert colliding entries, tombstone the first, and make sure
        # probing continues past the tombstone.
        m = PHashMap.create(pool, capacity=8)
        m.insert(0, 1)
        m.insert(8, 2)  # may collide at capacity 8 after hashing
        m.insert(16, 3)
        m.remove_one(8, 2)
        assert m.get_first(0) == 1
        assert m.get_first(16) == 3

    def test_items_iterates_all(self, pool):
        m = PHashMap.create(pool)
        expected = {(i, i + 1) for i in range(50)}
        for k, v in expected:
            m.insert(k, v)
        assert set(m.items()) == expected

    def test_attach_recounts_exactly(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024)
        m = PHashMap.create(pool)
        for i in range(123):
            m.insert(i, i)
        off = m.offset
        pool.set_root(off)
        pool.close()
        pool = PMemPool.open(pool_dir)
        m2 = PHashMap.attach(pool, pool.root_offset)
        assert len(m2) == 123
        assert m2.get_first(77) == 77
        m2.insert(999, 1)
        assert len(m2) == 124
        pool.close()

    def test_torn_insert_invisible(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024, mode=PMemMode.STRICT)
        m = PHashMap.create(pool)
        m.insert(1, 10)
        # Write key/value of a second entry without the FILLED state.
        import repro.nvm.phash as ph
        idx = ph._hash(2) % m.capacity
        off = m._slot_offset(idx)
        pool.write_u64(off + 8, 2)
        pool.write_u64(off + 16, 20)
        pool.crash()
        pool = PMemPool.open(pool_dir, mode=PMemMode.STRICT)
        m2 = PHashMap.attach(pool, m.offset)
        assert m2.get_first(2) is None
        assert m2.get_first(1) == 10
        assert len(m2) == 1
        pool.close()
