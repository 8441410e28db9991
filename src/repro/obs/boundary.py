"""The persistence-boundary event stream: one choke point, two consumers.

Every event after which engine state may become durable — a cache-line
flush, a persist barrier (drain), a WAL fsync, a checkpoint fsync — is
reported here by the layer that owns the boundary, via :func:`emit`.
Two consumers watch the same stream:

* the process metrics registry counts each kind
  (``persistence_events_total{kind=...}``) — the single source of
  truth for global flush/fsync counts, fed at exactly the call sites
  the fault injector sees, so telemetry and crash-point enumeration
  can never disagree;
* the optional *fault hook* (:func:`set_hook`), installed by the
  crash-point sweep harness, which may raise a simulated power failure
  *before* the event takes effect.

The counter increment happens before the hook runs: an event that the
injector kills still counts — the power died *at* that boundary, which
is precisely the point being enumerated.

Hot-path cost: with no hook installed and the default registry enabled,
one cached dict lookup plus a locked integer increment per event; with
a disabled registry, a no-op method call.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs import metrics as _metrics

EVENTS_TOTAL = "persistence_events_total"

_hook: Optional[Callable[[str], None]] = None

# Bound Counter.inc methods are cached per registry generation so
# emit() costs one dict lookup plus one deque append per event — no
# registry lock, no attribute chase, no function call to generation().
_incs: dict[str, Callable[[], None]] = {}
_counters_generation = -1


def set_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Install (or, with ``None``, remove) the global fault hook.

    The hook receives the event kind *before* the event takes effect,
    and may raise to simulate a power failure at that boundary.
    """
    global _hook
    _hook = hook


def get_hook() -> Optional[Callable[[str], None]]:
    return _hook


def _inc_for(kind: str) -> Callable[[], None]:
    global _counters_generation
    generation = _metrics.generation()
    if generation != _counters_generation:
        _incs.clear()
        _counters_generation = generation
    inc = _incs.get(kind)
    if inc is None:
        inc = _metrics.get_registry().counter(EVENTS_TOTAL, kind=kind).inc
        _incs[kind] = inc
    return inc


def emit(kind: str) -> None:
    """Report one persistence-boundary event (count it, then hook it)."""
    # Inlined fast path of _inc_for: reading the generation global
    # directly saves a function call per event, and this runs for every
    # cache-line flush the engine performs.
    if _counters_generation == _metrics._generation:
        inc = _incs.get(kind)
        if inc is None:
            inc = _inc_for(kind)
    else:
        inc = _inc_for(kind)
    inc()
    hook = _hook
    if hook is not None:
        hook(kind)


def events_total(kind: str) -> int:
    """Current count of one event kind in the default registry."""
    return _metrics.get_registry().counter(EVENTS_TOTAL, kind=kind).value
