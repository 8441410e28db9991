"""The oracle must notice what it exists to notice."""

import random

import pytest

from perf.common import Failures
from perf.oracle import AccountsModel, EngineReader, check_restart

INFLIGHT = (10**12, 10**12 + 79)


@pytest.fixture
def recovered(tmp_path):
    """A crashed-and-reopened NVM database plus the model of its acked
    writes; 80 rows were in flight at the crash."""
    from repro import Database, DataType, DurabilityMode, EngineConfig, Eq
    from repro.nvm.pool import PMemMode

    config = EngineConfig(mode=DurabilityMode.NVM, pmem_mode=PMemMode.STRICT)
    db = Database(str(tmp_path / "db"), config)
    db.create_table(
        "accounts", {"id": DataType.INT64, "grp": DataType.STRING, "qty": DataType.INT64}
    )
    db.create_index("accounts", "id")
    model = AccountsModel()
    rows = [{"id": i, "grp": f"g{i % 7}", "qty": i % 13} for i in range(300)]
    db.insert_many("accounts", rows)
    for row in rows:
        model.insert_row(row)
    open_txns = []
    for j in range(8):
        txn = db.begin()
        for q in range(10):
            txn.insert(
                "accounts", {"id": INFLIGHT[0] + j * 10 + q, "grp": "x", "qty": 1}
            )
        open_txns.append(txn)
    db.crash()
    db = Database(str(tmp_path / "db"), config)
    # Read before writing, as the first-answer probe does: on NVM a write
    # that precedes the first indexed read after a reopen leaves the
    # volatile delta index stale for good (see perf/README.md, findings).
    assert db.query("accounts", Eq("id", 0)).rows() == [rows[0]]
    yield db, model
    db.close()


def run_check(db, model) -> Failures:
    failures = Failures()
    check_restart(
        EngineReader(db, "accounts", "qty"), model, INFLIGHT, failures, random.Random(1)
    )
    return failures


def test_clean_recovery_has_no_failures(recovered):
    db, model = recovered
    failures = run_check(db, model)
    assert failures.failed == 0
    # count + sum + 300 sampled keys + 80 in-flight + verify()
    assert failures.attempted == 2 + 300 + 80 + 1
    assert failures.share == 0.0


def test_lost_acked_write_is_counted(recovered):
    db, model = recovered
    # The client was told this write committed; the database lost it.
    model.insert_row({"id": 5000, "grp": "g1", "qty": 9})
    failures = run_check(db, model)
    assert failures.share > 0
    assert any("5000" in example for example in failures.examples)


def test_wrong_value_is_counted(recovered):
    db, model = recovered
    model.update(17, 999)
    failures = run_check(db, model)
    assert failures.share > 0


def test_visible_inflight_row_is_counted(recovered):
    db, model = recovered
    # An uncommitted row that survived the crash, as a client sees it: a
    # committed row under an in-flight id the model never acknowledged.
    db.insert("accounts", {"id": INFLIGHT[0] + 3, "grp": "x", "qty": 1})
    failures = run_check(db, model)
    assert failures.share > 0
    assert any("in-flight" in example for example in failures.examples)
