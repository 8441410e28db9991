"""Admission control: per-tenant token buckets and inflight quotas.

Two independent gates run before a data-plane request joins its
tenant's lane (:mod:`repro.server.server`):

* a **token bucket** per tenant (``rate`` requests/second, ``burst``
  capacity) — sustained overload is rejected with
  :data:`~repro.server.protocol.Status.RATE_LIMITED` instead of queuing
  without bound;
* a **max-inflight quota** per tenant
  (:data:`~repro.server.protocol.Status.TOO_MANY_INFLIGHT`). A tenant's
  requests run in one lane, one tick at a time, so a tenant can only
  ever occupy one worker whatever it sends; what ``max_inflight``
  bounds is the tenant's *queued* requests — admitted and not yet
  answered, waiting in the lane or running in its tick — and with it
  the size of a tick and the memory a pipelining client can pin.

Decisions are O(1) and run on the event loop thread; both gates ride
on the existing :mod:`repro.obs` registry (``server_rejected_total``
by reason, ``server_inflight`` by tenant), so rejections are visible
in ``metrics_snapshot()`` and the Prometheus export like any other
engine signal. The server passes the tenant's *metric label* as the
key — a name the catalog knows, or the one label every unknown name
shares — so neither map nor the gauge family grows with names a client
made up, and an inflight entry goes when its count returns to zero.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.obs import get_registry

#: ``admit`` rejection reasons (stable metric label values).
REASON_RATE = "rate_limited"
REASON_INFLIGHT = "too_many_inflight"


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` cap."""

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def try_take(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False


class AdmissionController:
    """Per-tenant admission decisions for the data plane.

    ``rate``/``burst`` default to None (no rate limiting);
    ``max_inflight`` bounds admitted, unanswered requests per tenant
    (None = unbounded). One controller serves every tenant — buckets
    and inflight counts are created lazily per key.
    """

    def __init__(
        self,
        *,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_inflight: Optional[int] = None,
    ):
        if rate is None and burst is not None:
            raise ValueError("burst without rate makes no sense")
        self.rate = rate
        self.burst = burst if burst is not None else (rate if rate else None)
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight: dict[str, int] = {}

    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        if self.rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            with self._lock:
                bucket = self._buckets.setdefault(
                    tenant, TokenBucket(self.rate, self.burst)
                )
        return bucket

    def admit(self, tenant: str) -> Optional[str]:
        """Try to admit one request; returns a rejection reason or None.

        On admission the tenant's inflight count is already
        incremented — the caller *must* release every successful
        ``admit`` exactly once.
        """
        registry = get_registry()
        bucket = self._bucket(tenant)
        if bucket is not None and not bucket.try_take():
            registry.counter("server_rejected_total", reason=REASON_RATE).inc()
            return REASON_RATE
        with self._lock:
            inflight = self._inflight.get(tenant, 0)
            if self.max_inflight is not None and inflight >= self.max_inflight:
                reject = True
            else:
                self._inflight[tenant] = inflight + 1
                reject = False
        if reject:
            registry.counter(
                "server_rejected_total", reason=REASON_INFLIGHT
            ).inc()
            return REASON_INFLIGHT
        registry.gauge("server_inflight", tenant=tenant).add(1)
        return None

    def release(self, tenant: str, n: int = 1) -> None:
        """Answer ``n`` of the tenant's admitted requests at once."""
        with self._lock:
            count = self._inflight.get(tenant, 0) - n
            if count <= 0:
                self._inflight.pop(tenant, None)
            else:
                self._inflight[tenant] = count
        get_registry().gauge("server_inflight", tenant=tenant).add(-n)

    def inflight(self, tenant: str) -> int:
        with self._lock:
            return self._inflight.get(tenant, 0)
