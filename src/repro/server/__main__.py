"""``python -m repro.server`` / ``repro-server`` — run the front-end.

Example::

    repro-server --path /var/lib/repro --port 7411 --mode nvm --workers 8

Prints one ``READY host=... port=...`` line once the listener is up
(after all tenants recovered), so wrappers can wait on stdout instead
of polling. SIGINT/SIGTERM trigger the graceful drain; a SIGKILL is
the crash case instant restart exists for.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Optional

from repro.core.config import DurabilityMode, EngineConfig
from repro.server.server import ReproServer, ServerConfig


def build_config(args: argparse.Namespace) -> ServerConfig:
    engine = EngineConfig(
        mode=DurabilityMode(args.mode),
        extent_size=args.extent_size,
    )
    return ServerConfig(
        host=args.host,
        port=args.port,
        engine=engine,
        workers=args.workers,
        max_attached=args.max_attached,
        rate_limit=args.rate_limit,
        burst=args.burst,
        max_inflight=args.max_inflight,
        drain_timeout_s=args.drain_timeout,
    )


async def _run(path: str, config: ServerConfig) -> int:
    server = ReproServer(path, config)
    await server.start()
    print(f"READY host={config.host} port={server.port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    print("draining...", flush=True)
    await server.stop()
    print("stopped.", flush=True)
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve a multi-tenant repro engine over TCP.",
    )
    parser.add_argument("--path", required=True, help="server root directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7411)
    parser.add_argument(
        "--mode",
        default="nvm",
        choices=[m.value for m in DurabilityMode],
        help="default durability mode for new tenants (default: nvm)",
    )
    parser.add_argument(
        "--extent-size", type=int, default=8 * 1024 * 1024,
        help="pmem extent size per tenant (NVM mode)",
    )
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument(
        "--max-attached", type=int, default=None,
        help="LRU cap on concurrently attached tenant engines",
    )
    parser.add_argument(
        "--rate-limit", type=float, default=None,
        help="per-tenant request rate limit (req/s)",
    )
    parser.add_argument("--burst", type=float, default=None)
    parser.add_argument("--max-inflight", type=int, default=256)
    parser.add_argument("--drain-timeout", type=float, default=5.0)
    args = parser.parse_args(argv)
    try:
        return asyncio.run(_run(args.path, build_config(args)))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
