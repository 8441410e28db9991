"""Table schemas and their binary serialisation.

Schemas are persisted (in the NVM catalog and in checkpoints) as a
compact binary blob so that a restart can reconstruct column metadata
without any external files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from repro.storage.types import DataType, Value, type_from_tag, type_tag

Batch = Union[Sequence[dict], Mapping[str, Sequence]]


class SchemaError(ValueError):
    """A table definition rejected at the API boundary — before any
    driver allocated, registered or logged anything for it."""


@dataclass(frozen=True)
class ColumnDef:
    """Name and type of one column."""

    name: str
    dtype: DataType

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")
        if not isinstance(self.dtype, DataType):
            accepted = ", ".join(f"DataType.{t.name}" for t in DataType)
            raise SchemaError(
                f"column {self.name!r} has unknown dtype {self.dtype!r}; "
                f"accepted types are {accepted}"
            )


@dataclass(frozen=True)
class Schema:
    """Ordered set of columns defining a table."""

    columns: tuple[ColumnDef, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)
    #: Per column ``(name, exact python type, DataType.validate)``.
    _checks: tuple = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, columns):
        cols = tuple(columns)
        if not cols:
            raise ValueError("schema needs at least one column")
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(
            self, "_index", {c.name: i for i, c in enumerate(cols)}
        )
        object.__setattr__(
            self,
            "_checks",
            tuple((c.name, c.dtype.python_type, c.dtype.validate) for c in cols),
        )

    @classmethod
    def of(cls, **name_types: DataType) -> "Schema":
        """Convenience constructor: ``Schema.of(id=DataType.INT64, ...)``."""
        return cls([ColumnDef(n, t) for n, t in name_types.items()])

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def column_index(self, name: str) -> int:
        """Position of column ``name`` (raises KeyError if absent)."""
        return self._index[name]

    def column(self, name: str) -> ColumnDef:
        return self.columns[self._index[name]]

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def validate_row(self, row: dict) -> list[Value]:
        """Check a {name: value} row and return values in column order.

        Missing columns become NULL; unknown keys raise.
        """
        if type(row) is dict and row.keys() <= self._index.keys():
            # ``validate`` returns NULL, and a value of exactly the
            # stored type (never a ``bool``: its type is not ``int``),
            # as it is; only another type needs its checks.
            get = row.get
            return [
                v if (v := get(name)) is None or type(v) is exact else check(v)
                for name, exact, check in self._checks
            ]
        if not isinstance(row, Mapping):
            kind = type(row).__name__
            raise SchemaError(f"a row is a {{column: value}} dict, not {kind}")
        unknown = set(row) - set(self._index)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        return [c.dtype.validate(row.get(c.name)) for c in self.columns]

    def validate_columns(self, rows: Batch) -> list[list[Value]]:
        """:meth:`validate_row` for a batch of rows or of ``{name: list}``
        columns, by column: one check of the types held per column, which
        takes a column of its exact stored type and NULL as it is. Any
        other batch goes through :meth:`validate_row` row by row (columns
        transposed), raising what it raises, at the same row."""
        if isinstance(rows, Mapping):
            lengths = set(map(len, rows.values()))
            if len(lengths) > 1:
                raise SchemaError(f"columns of unequal lengths {sorted(lengths)}")
            n = lengths.pop() if lengths else 0
            columns = [rows.get(name, [None] * n) for name, _, _ in self._checks]
            if rows.keys() <= self._index.keys() and self._exact(columns):
                return columns
            rows = [dict(zip(rows, row)) for row in zip(*rows.values())]
        if set(map(type, rows)) <= {dict} and set().union(*rows) <= self._index.keys():
            columns = [[row.get(name) for row in rows] for name, _, _ in self._checks]
            if self._exact(columns):
                return columns
        return [list(column) for column in zip(*map(self.validate_row, rows))]

    def _exact(self, columns: list) -> bool:
        """Every column a list of its exact stored type and NULL only."""
        return all(
            type(column) is list and {exact, type(None)}.issuperset(map(type, column))
            for column, (_, exact, _) in zip(columns, self._checks)
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise: u16 column count, then (u8 tag, u16 len, name)*."""
        parts = [struct.pack("<H", len(self.columns))]
        for col in self.columns:
            encoded = col.name.encode("utf-8")
            parts.append(struct.pack("<BH", type_tag(col.dtype), len(encoded)))
            parts.append(encoded)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Schema":
        """Inverse of :meth:`to_bytes`."""
        (count,) = struct.unpack_from("<H", blob, 0)
        pos = 2
        cols = []
        for _ in range(count):
            tag, name_len = struct.unpack_from("<BH", blob, pos)
            pos += 3
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            cols.append(ColumnDef(name, type_from_tag(tag)))
        return cls(cols)
