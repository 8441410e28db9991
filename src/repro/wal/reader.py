"""Log reading: iterate framed records, stopping at the torn tail.

Records are decoded from a fixed-size sliding window rather than a
whole-file slurp, so recovering a multi-gigabyte log needs O(chunk)
memory no matter how large the log grew between checkpoints.

Two reading modes share :class:`repro.frame.FrameDecoder`:

* :class:`LogScan` / :func:`read_log` — the recovery scan: iterate until
  the first incomplete or CRC-failing frame and stop, exposing *where*
  and *why* iteration stopped (``last_good_lsn`` / ``stop_reason``), so
  callers can tell a clean end-of-log from a torn tail.
* :func:`tail_log` — the live tail a replication shipper runs against a
  log that is still being written: an incomplete or CRC-failing frame is
  (usually) a record the writer has not finished flushing, not permanent
  corruption, so the tailer re-polls from the same offset instead of
  giving up.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterator, Optional

from repro import frame
from repro.frame import FrameDecoder, FrameError
from repro.wal.records import MAX_RECORD_BYTES, LogRecord, decode_payload

__all__ = [
    "CHUNK_SIZE",
    "MAX_RECORD_BYTES",
    "LogScan",
    "read_log",
    "tail_log",
    "count_records",
]

#: Read granularity of the sliding window.
CHUNK_SIZE = 256 * 1024

#: ``LogScan.stop_reason`` values; the last three are the
#: :class:`~repro.frame.FrameError` reasons of the frame it stopped at.
STOP_MISSING = "missing"  # the log file does not exist
STOP_EOF = "eof"  # clean EOF exactly at a frame boundary
STOP_SHORT = frame.SHORT  # the file ends inside a frame (truncated tail)
STOP_CRC = frame.CRC  # a complete-looking frame failed its CRC
STOP_OVERSIZE = frame.OVERSIZE  # length prefix beyond MAX_RECORD_BYTES


class LogScan:
    """Iterator over ``(record, end_lsn)`` with explicit stopping state.

    ``end_lsn`` is the byte offset just past the record — the LSN a
    checkpoint taken after applying it should store. Iteration stops at
    the first frame that is incomplete or fails its CRC; afterwards:

    * ``last_good_lsn`` — offset just past the last intact frame (equal
      to ``start_lsn`` when nothing decoded). A recovery that truncates
      the torn tail truncates to exactly this offset; a tailer resumes
      from it.
    * ``stop_reason`` — ``None`` while iterating, then a ``STOP_*``
      value. Only ``"eof"``/``"missing"`` mean the log is whole; the
      rest is a torn tail — or, on a *live* log, a frame the writer has
      not finished flushing yet (:func:`tail_log` retries exactly these).

    With ``decode=False`` iteration yields the raw (CRC-checked)
    payload bytes instead of decoded records — the replayer routes
    payloads to per-table queues by their
    :func:`~repro.wal.records.peek_payload` header and defers the full
    decode to its drain.
    """

    def __init__(self, path: str, start_lsn: int = 0, decode: bool = True):
        self.path = path
        self.start_lsn = start_lsn
        self.last_good_lsn = start_lsn
        self.stop_reason: Optional[str] = None
        self.decode = decode
        self._gen = self._scan()

    def __iter__(self) -> "LogScan":
        return self

    def __next__(self) -> tuple[LogRecord, int]:
        return next(self._gen)

    def _scan(self) -> Iterator[tuple[LogRecord, int]]:
        if not os.path.exists(self.path):
            self.stop_reason = STOP_MISSING
            return
        decoder = FrameDecoder(MAX_RECORD_BYTES, self.start_lsn)
        pos = self.start_lsn  # LSN just past the last intact frame
        with open(self.path, "rb") as f:
            f.seek(self.start_lsn)
            while chunk := f.read(CHUNK_SIZE):
                decoder.feed(chunk)
                try:
                    for payload in decoder.frames():
                        pos += frame.HEADER_BYTES + len(payload)
                        self.last_good_lsn = pos
                        yield (decode_payload(payload) if self.decode else payload), pos
                except FrameError as exc:
                    if exc.reason == frame.PAYLOAD:
                        raise  # a CRC-valid record that does not parse
                    self.stop_reason = exc.reason
                    return
        # Nothing after the last frame is a clean end; anything else is
        # a frame the file ends inside.
        self.stop_reason = STOP_SHORT if decoder.pending_bytes else STOP_EOF


def read_log(path: str, start_lsn: int = 0) -> LogScan:
    """Scan ``(record, end_lsn)`` from ``start_lsn`` until EOF or torn tail.

    Returns a :class:`LogScan`, so callers that care can read
    ``last_good_lsn``/``stop_reason`` after the iteration instead of
    guessing where — and why — it stopped.
    """
    return LogScan(path, start_lsn)


def tail_log(
    path: str,
    from_lsn: int = 0,
    *,
    poll_interval_s: float = 0.001,
    stop: Optional[Callable[[], bool]] = None,
    frontier: Optional[Callable[[], int]] = None,
    decode: bool = True,
) -> Iterator[tuple[LogRecord, int]]:
    """Follow a live log: yield ``(record, end_lsn)`` as frames appear.

    Unlike :func:`read_log`, an incomplete or CRC-failing frame does not
    end iteration — on a log with an active writer it is (almost always)
    a record whose bytes have not all reached the file yet, so the
    tailer sleeps ``poll_interval_s`` and re-reads *from the same
    offset* until the frame completes. Genuine corruption below a known
    frontier therefore spins rather than yields garbage; a shipper
    bounds that with ``stop``.

    * ``stop`` — checked between records and on every poll; return True
      to end iteration (the only way a tail ends).
    * ``frontier`` — optional byte-offset bound (e.g. the primary's
      durable frontier for async replication): records ending past
      ``frontier()`` are withheld until the frontier advances past them.
    * ``decode`` — as for :class:`LogScan`: ``False`` yields the raw
      CRC-checked payloads (what a shipper forwards).
    """
    pos = from_lsn
    while True:
        if stop is not None and stop():
            return
        limit = frontier() if frontier is not None else None
        progressed = False
        if limit is None or limit > pos:
            scan = LogScan(path, pos, decode=decode)
            for record, end in scan:
                if limit is not None and end > limit:
                    break
                pos = end
                progressed = True
                yield record, end
                if stop is not None and stop():
                    return
                limit = frontier() if frontier is not None else None
        if not progressed:
            time.sleep(poll_interval_s)


def count_records(path: str, start_lsn: int = 0) -> int:
    """Number of intact records from ``start_lsn``."""
    return sum(1 for _ in read_log(path, start_lsn))
