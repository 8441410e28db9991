"""Spawn a real server *process* (for kill/restart scenarios).

An in-process :class:`~repro.server.server.ServerThread` cannot be
SIGKILLed without killing the test runner, and a thread's death is not
a crash — its memory survives. The restart-downtime experiment and the
kill-mid-commit tests need a genuine process boundary, so this module
launches ``python -m repro.server`` as a subprocess with the right
``PYTHONPATH`` and gives callers a free port and a kill switch.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from typing import Optional

import repro


def src_root() -> str:
    """The directory that makes ``import repro`` work in a child."""
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def free_port() -> int:
    """An OS-assigned free TCP port (best-effort: tiny reuse race)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_server(
    path: str,
    port: int,
    *,
    mode: str = "nvm",
    workers: int = 8,
    rate_limit: Optional[float] = None,
    max_inflight: Optional[int] = None,
    extra_args: Optional[list] = None,
    capture: bool = False,
) -> subprocess.Popen:
    """Start ``python -m repro.server`` on ``port``; returns the process.

    The caller owns the process: pair with
    :func:`repro.server.client.wait_for_server` to wait for readiness
    and ``proc.kill()`` / ``proc.terminate()`` to end it.
    """
    args = [
        sys.executable,
        "-m",
        "repro.server",
        "--path",
        path,
        "--port",
        str(port),
        "--mode",
        mode,
        "--workers",
        str(workers),
    ]
    if rate_limit is not None:
        args += ["--rate-limit", str(rate_limit)]
    if max_inflight is not None:
        args += ["--max-inflight", str(max_inflight)]
    if extra_args:
        args += [str(a) for a in extra_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root() + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    stdout = subprocess.PIPE if capture else subprocess.DEVNULL
    return subprocess.Popen(
        args, env=env, stdout=stdout, stderr=subprocess.STDOUT
    )
