"""Secondary indexes.

Hyrise indexes each partition separately:

* :class:`GroupKeyIndex` — a CSR-style (offsets + positions) index over
  the main partition's dictionary codes, rebuilt at every merge. On NVM
  it is persisted with the main generation, so restarts attach it
  without any rebuild.
* :class:`VolatileDeltaIndex` maps dictionary codes to delta row
  positions, maintained per insert. It lives in DRAM: after a restart,
  a merge or an index creation the first probe or insert catches it up
  from the delta's codes (O(delta), one ``argsort``).
"""

from repro.index.groupkey import GroupKeyIndex
from repro.index.delta_index import VolatileDeltaIndex
from repro.index.table_index import TableIndex

__all__ = [
    "GroupKeyIndex",
    "TableIndex",
    "VolatileDeltaIndex",
]
