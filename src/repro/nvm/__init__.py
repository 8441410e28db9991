"""Simulated byte-addressable non-volatile memory (NVM) substrate.

The paper runs on NVDIMM hardware; this package provides the closest
software equivalent: an mmap-backed persistent memory pool with explicit
cache-line flush / persist-barrier primitives, crash simulation that
discards unflushed stores, a configurable latency model, and the
persistent building blocks (growable vectors, a blob heap) that the
storage engine keeps on NVM.
"""

from repro.nvm.errors import (
    NvmError,
    PoolCorruptError,
    PoolFullError,
    PoolModeError,
)
from repro.nvm.latency import LatencyModel, NvmStats
from repro.nvm.pool import CACHE_LINE, PMemPool, PMemMode
from repro.nvm.pvector import PVector, DTYPE_CODES
from repro.nvm.pheap import PHeap

__all__ = [
    "CACHE_LINE",
    "DTYPE_CODES",
    "LatencyModel",
    "NvmError",
    "NvmStats",
    "PHeap",
    "PMemMode",
    "PMemPool",
    "PVector",
    "PoolCorruptError",
    "PoolFullError",
    "PoolModeError",
]
