"""The correctness oracle: a model of acked writes, checked after restart.

Each workload keeps a model of every write the system acknowledged.
After the first crash + reopen :func:`check_restart` compares the
recovered database with it — row count, a whole-table sum, sampled
keys, invisibility of the writes that were in flight at the crash, and
the engine's own consistency validator. Every comparison is one
attempted unit in :class:`~perf.common.Failures`; a mismatch is one
failure (a lost acked write, a visible in-flight write, a wrong value).
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

import numpy as np
import repro
from repro import Between, Eq

from perf.common import Failures

SAMPLED_KEYS = 1000
ACCOUNT_ROW_BYTES = 8 + 16 + 8  # id INT64, grp STRING, qty INT64
SALES_ROW_BYTES = 8 + 8 + 16 + 8 + 8  # id, item_id, region STRING, amount, day
ITEM_ROW_BYTES = 8 + 16 + 8  # id, category STRING, price


# ----------------------------------------------------------------------
# Readers: the same questions asked in-process or over the wire
# ----------------------------------------------------------------------


class EngineReader:
    """Asks an in-process ``Database``.

    ``repro.aggregate`` is looked up at call time: ``perf.trace`` swaps
    that attribute for its wrapper while tracing is on.
    """

    def __init__(self, db, table: str, value: str, key: str = "id"):
        self.db, self.table, self.key, self.value = db, table, key, value

    def point(self, k) -> list[dict]:
        return self.db.query(self.table, Eq(self.key, k)).rows()

    def span(self, lo, hi) -> list[dict]:
        rows = self.db.query(self.table, Between(self.key, lo, hi)).rows()
        return sorted(rows, key=lambda r: r[self.key])

    def count(self) -> int:
        return repro.aggregate(self.db.query(self.table), "count")

    def total(self):
        return repro.aggregate(self.db.query(self.table), "sum", self.value)

    def problems(self) -> list[str]:
        return self.db.verify()


class WireReader:
    """Asks a served tenant through a ``ReproClient``.

    ``Database.verify()`` has no wire op, so ``problems`` is empty.
    """

    def __init__(self, client, tenant: str, table: str, value: str, key: str = "id"):
        self.client, self.tenant = client, tenant
        self.table, self.key, self.value = table, key, value

    def point(self, k) -> list[dict]:
        return self.client.query(self.table, Eq(self.key, k), tenant=self.tenant)

    def span(self, lo, hi) -> list[dict]:
        rows = self.client.query(
            self.table, Between(self.key, lo, hi), tenant=self.tenant
        )
        return sorted(rows, key=lambda r: r[self.key])

    def count(self) -> int:
        return self.client.aggregate(self.table, "count", tenant=self.tenant)

    def total(self):
        return self.client.aggregate(
            self.table, "sum", column=self.value, tenant=self.tenant
        )

    def problems(self) -> list[str]:
        return []


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------


class AccountsModel:
    """``accounts(id, grp, qty)``: id -> (grp, qty) of every live row."""

    row_bytes = ACCOUNT_ROW_BYTES

    def __init__(self) -> None:
        self.live: dict[int, tuple[str, int]] = {}
        self.deleted: list[int] = []

    def insert(self, key: int, grp: str, qty: int) -> None:
        self.live[key] = (grp, qty)

    def insert_row(self, row: dict) -> None:
        self.live[row["id"]] = (row["grp"], row["qty"])

    def update(self, key: int, qty: int) -> None:
        self.live[key] = (self.live[key][0], qty)

    def delete(self, key: int) -> None:
        del self.live[key]
        self.deleted.append(key)

    def expected(self, key: int) -> list[dict]:
        row = self.live.get(key)
        if row is None:
            return []
        return [{"id": key, "grp": row[0], "qty": row[1]}]

    @property
    def count(self) -> int:
        return len(self.live)

    @property
    def total(self) -> int:
        return sum(qty for _grp, qty in self.live.values())

    @property
    def user_bytes(self) -> int:
        return self.count * self.row_bytes

    def samples(self, rng: random.Random) -> list[tuple]:
        """Point checks over live and deleted keys alike."""
        keys = list(self.live) + self.deleted
        picked = rng.sample(keys, min(SAMPLED_KEYS, len(keys)))
        return [("point", (k,), self.expected(k)) for k in picked]


class SalesModel:
    """``sales(id, item_id, region, amount, day)``, append-only.

    Ids are dense (row ``i`` has id ``i``), so the model is the input
    columns plus the number of rows acknowledged so far.
    """

    row_bytes = SALES_ROW_BYTES

    def __init__(self, item_id, region, amount, day, extra_user_bytes: int = 0):
        self.item_id = np.asarray(item_id)
        self.region = np.asarray(region)
        self.amount = np.asarray(amount)
        self.day = np.asarray(day)
        self.acked = 0
        self.extra: list[dict] = []  # rows outside the dense range (probes)
        self._extra_user_bytes = extra_user_bytes

    def row(self, i: int) -> dict:
        return {
            "id": i,
            "item_id": int(self.item_id[i]),
            "region": f"r{int(self.region[i])}",
            "amount": float(self.amount[i]),
            "day": int(self.day[i]),
        }

    def rows(self, lo: int, hi: int) -> list[dict]:
        return [self.row(i) for i in range(lo, hi)]

    def insert_row(self, row: dict) -> None:
        self.extra.append(row)

    @property
    def count(self) -> int:
        return self.acked + len(self.extra)

    @property
    def total(self) -> float:
        return float(self.amount[: self.acked].sum()) + sum(
            r["amount"] for r in self.extra
        )

    @property
    def user_bytes(self) -> int:
        return self.count * self.row_bytes + self._extra_user_bytes

    def samples(self, rng: random.Random) -> list[tuple]:
        """No index on ``sales``: sample contiguous id ranges instead of
        points (each is one scan), ~SAMPLED_KEYS rows in total."""
        width = min(200, self.acked)
        out = []
        for _ in range(max(1, SAMPLED_KEYS // max(1, width))):
            lo = rng.randrange(0, self.acked - width + 1)
            out.append(("span", (lo, lo + width - 1), self.rows(lo, lo + width)))
        return out


# ----------------------------------------------------------------------
# The check
# ----------------------------------------------------------------------


def same_number(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)


def same_rows(got: Sequence[dict], want: Sequence[dict]) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g.keys() != w.keys():
            return False
        for name, value in w.items():
            if isinstance(value, float):
                if not same_number(g[name], value):
                    return False
            elif g[name] != value:
                return False
    return True


def check_restart(
    reader,
    model,
    inflight: Optional[tuple[int, int]],
    failures: Failures,
    rng: Optional[random.Random] = None,
) -> None:
    """Compare a recovered database with the model of acked writes.

    ``inflight`` is the inclusive id range of the rows that were
    inserted but not committed when the crash hit; none may be visible.
    """
    rng = rng or random.Random(0)
    count = reader.count()
    failures.check(
        count == model.count,
        f"row count after restart: got {count}, acked {model.count}",
    )
    total = reader.total()
    failures.check(
        same_number(total, model.total),
        f"sum({reader.value}) after restart: got {total}, acked {model.total}",
    )
    for kind, args, want in model.samples(rng):
        got = getattr(reader, kind)(*args)
        if len(want) > 1 or kind == "span":
            # One unit per expected row, so a lost row in a range counts
            # like a lost point.
            by_key = {r[reader.key]: r for r in got}
            for row in want:
                found = by_key.get(row[reader.key])
                failures.check(
                    found is not None and same_rows([found], [row]),
                    f"acked row {row} after restart: got {found}",
                )
            failures.check(
                len(got) == len(want),
                f"{kind}{args}: {len(got)} rows, expected {len(want)}",
            )
        else:
            failures.check(
                same_rows(got, want),
                f"{kind}{args} after restart: got {got}, expected {want}",
            )
    if inflight is not None:
        lo, hi = inflight
        visible = {row[reader.key] for row in reader.span(lo, hi)}
        for key in range(lo, hi + 1):
            failures.check(
                key not in visible, f"in-flight write {key} visible after restart"
            )
    problems = reader.problems()
    failures.check(not problems, f"verify() after restart: {problems[:3]}")
