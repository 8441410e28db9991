"""``served_nvm``: the server process, driven over TCP.

``python -m repro.server --mode nvm`` (CLI defaults) runs as a child
process; one tenant holds the ``accounts`` table of the OLTP workloads.
The client is this process: 2 connections × 16 requests outstanding
(a sliding window — each response triggers the next send; latency is
send → matched response), built on the public
``repro.server.protocol`` framing functions. 75% single-row ``INSERT``,
25% indexed point ``QUERY``. Restart cycles ``SIGKILL`` the server with
a burst of unanswered inserts on the wire, respawn it and time the
first answers over fresh connections.
"""

from __future__ import annotations

import gc
import json
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
from array import array
from time import perf_counter
from typing import Optional

import numpy as np
from repro import Eq
from repro.server import protocol
from repro.server.client import ReproClient, wait_for_server
from repro.server.proc import free_port

from perf import calibrate, layers
from perf.common import (
    Failures,
    Sizes,
    end_to_end_result,
    latency_summary,
    plain,
    src_env,
)
from perf.oracle import AccountsModel, WireReader, check_restart, same_rows

HOST = "127.0.0.1"
TENANT = "bench"
TABLE = "accounts"
SCHEMA = [["id", "int64"], ["grp", "string"], ["qty", "int64"]]
CONNECTIONS = 2
WINDOW = 16
PRELOAD_BATCH = 5_000
GROUPS = 97
#: Requests between two host-speed samples (the windows drain first).
BLOCK_REQUESTS = 500
#: Inserts left unanswered on the wire when the server is killed.
INFLIGHT_REQUESTS = 80
INFLIGHT_BASE = 10**12
PROBE_BASE = 2 * 10**12
#: What a point QUERY fetches. Not ``id``: decoding a column whose delta
#: dictionary grew since the last decode extends a cache without a latch
#: (``Dictionary._decode_table``), and two server workers doing so at
#: once corrupt it — every later read of that column returns wrong
#: values. Found by this workload's oracle; see perf/README.md. ``grp``
#: and ``qty`` have fixed value sets, so their caches never grow here.
READ_COLUMNS = ["grp", "qty"]
_SERVE_TRACED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_traced.py")


class WindowClient:
    """N connections, each keeping up to ``window`` requests outstanding."""

    def __init__(self, port: int, connections: int = CONNECTIONS, window: int = WINDOW):
        self.window = window
        self.socks, self.decoders = [], []
        self.selector = selectors.DefaultSelector()
        for slot in range(connections):
            sock = socket.create_connection((HOST, port), timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
            self.decoders.append(protocol.FrameDecoder())
            self.selector.register(sock, selectors.EVENT_READ, slot)
            hello = protocol.pack_request(
                protocol.Op.HELLO,
                0,
                "",
                {"version": protocol.PROTOCOL_VERSION, "client": "perf"},
            )
            sock.sendall(hello)
            for response in self._read(slot):
                if not response.ok:
                    raise ConnectionError(f"HELLO refused: {response.body}")
                break

    def _read(self, slot: int) -> list:
        """Block for at least one complete response on one connection."""
        out = []
        while not out:
            data = self.socks[slot].recv(262144)
            if not data:
                raise ConnectionError("server closed the connection")
            self.decoders[slot].feed(data)
            out = [
                protocol.unpack_response(p) for p in self.decoders[slot].frames()
            ]
        return out

    def run_block(self, frames, first: int, last: int, sent, latency, on_response) -> None:
        """Requests ``[first, last)``; request ``i`` travels on connection
        ``i % connections`` under wire id ``i + 1``. Returns once every
        one of them is answered."""
        n_conn = len(self.socks)
        queues = [list(range(first + ((s - first) % n_conn), last, n_conn)) for s in range(n_conn)]
        cursor = [0] * n_conn
        remaining = last - first

        def refill(slot: int, room: int) -> None:
            queue, at = queues[slot], cursor[slot]
            batch = queue[at : at + room]
            if not batch:
                return
            cursor[slot] = at + len(batch)
            now = perf_counter()
            for i in batch:
                sent[i] = now
            self.socks[slot].sendall(b"".join(frames[i] for i in batch))

        for slot in range(n_conn):
            refill(slot, self.window)
        unpack = protocol.unpack_response
        while remaining:
            events = self.selector.select(timeout=60)
            if not events:
                raise TimeoutError(f"{remaining} requests unanswered after 60 s")
            for key, _mask in events:
                slot = key.data
                data = self.socks[slot].recv(262144)
                if not data:
                    raise ConnectionError("server closed the connection")
                decoder = self.decoders[slot]
                decoder.feed(data)
                now = perf_counter()
                answered = 0
                for payload in decoder.frames():
                    response = unpack(payload)
                    i = response.request_id - 1
                    latency[i] = now - sent[i]
                    on_response(i, response)
                    answered += 1
                remaining -= answered
                refill(slot, answered)

    def close(self) -> None:
        self.selector.close()
        for sock in self.socks:
            sock.close()


class ServedWorkload:
    name = "served_nvm"

    def __init__(self, sizes: Sizes, seed: int, workdir: str, *, traced: bool = False):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.failures = Failures()
        self.total = sizes.warmup + sizes.ops + sizes.reference
        self.latency = array("d", bytes(8 * self.total))
        self.sent = array("d", bytes(8 * self.total))
        self.meter = calibrate.SpeedMeter()
        self.proc: Optional[subprocess.Popen] = None
        self.signals_handled = 0
        self.spawned = 0

    # -- inputs ----------------------------------------------------------

    def generate(self) -> None:
        rng = random.Random(self.seed)
        n = self.sizes.preload
        self.preload_rows = [
            {"id": i, "grp": f"g{rng.randrange(GROUPS)}", "qty": rng.randrange(1000)}
            for i in range(n)
        ]
        self.kinds, self.keys, self.rows, self.frames = [], [], [], []
        next_id = n
        for i in range(self.total):
            if rng.random() < 0.75:
                row = {
                    "id": next_id,
                    "grp": f"g{rng.randrange(GROUPS)}",
                    "qty": rng.randrange(1000),
                }
                self.kinds.append("insert")
                self.keys.append(next_id)
                self.rows.append(row)
                op, body = protocol.Op.INSERT, {"table": TABLE, "row": row}
                next_id += 1
            else:
                # Preloaded keys only: with 32 requests in flight a newer
                # key's insert may not have been acknowledged yet.
                key = rng.randrange(n)
                self.kinds.append("point_read")
                self.keys.append(key)
                self.rows.append(None)
                op = protocol.Op.QUERY
                body = {
                    "table": TABLE,
                    "predicate": ["eq", "id", key],
                    "columns": READ_COLUMNS,
                }
            self.frames.append(protocol.pack_request(op, i + 1, TENANT, body))
        self.model = AccountsModel()

    # -- server process --------------------------------------------------

    def spawn(self, *, trace_on_start: bool = False) -> float:
        """Start the server on ``self.port``; returns seconds until it
        answered a PING on a fresh connection."""
        tail = ["--path", self.path, "--port", str(self.port), "--mode", "nvm"]
        if self.traced:
            self.dump_path = os.path.join(self.workdir, f"server-spans-{self.spawned}.json")
            args = [sys.executable, _SERVE_TRACED, "--dump", self.dump_path]
            if trace_on_start:
                args.append("--trace-on-start")
            args += tail
        else:
            args = [sys.executable, "-m", "repro.server"] + tail
        self.spawned += 1
        self.signals_handled = 0
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            args, env=src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        wait_for_server(HOST, self.port, timeout=60, interval=0.002)
        return perf_counter() - t0

    def stop(self, *, kill: bool) -> None:
        proc, self.proc = self.proc, None
        if proc is None or proc.poll() is not None:
            return
        if kill:
            proc.kill()
        else:
            proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)

    def signal_server(self, signum: int) -> None:
        """Send a serve_traced signal and wait until it was handled."""
        self.signals_handled += 1
        self.proc.send_signal(signum)
        ack = self.dump_path + ".ack"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                with open(ack) as f:
                    if f.read().strip() == str(self.signals_handled):
                        return
            except OSError:
                pass
            time.sleep(0.005)
        raise TimeoutError(f"server did not handle signal {signum} within 60 s")

    def server_spans(self) -> dict:
        """Ask the traced server for what it recorded so far."""
        self.signal_server(signal.SIGUSR1)
        with open(self.dump_path) as f:
            return json.load(f)

    def server_peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def admin(self):
        return ReproClient(HOST, self.port, timeout=120)

    # -- phases ----------------------------------------------------------

    def setup(self) -> None:
        self.port = free_port()
        self.spawn()
        with self.admin() as client:
            client.create_tenant(TENANT)
            client.create_table(TABLE, SCHEMA, tenant=TENANT)
            client.create_index(TABLE, "id", tenant=TENANT)
            rows = self.preload_rows
            for lo in range(0, len(rows), PRELOAD_BATCH):
                batch = rows[lo : lo + PRELOAD_BATCH]
                acked = client.insert_many(TABLE, batch, tenant=TENANT)
                if acked != len(batch):
                    raise RuntimeError(f"preload acked {acked} of {len(batch)} rows")
        model = self.model = AccountsModel()
        for row in self.preload_rows:
            model.insert_row(row)

    def on_response(self, i: int, response) -> None:
        failures = self.failures
        failures.attempted += 1
        if not response.ok:
            failures.fail(f"request {i} {self.kinds[i]}: {response.status.name} {response.body}")
        elif self.rows[i] is not None:
            self.model.insert_row(self.rows[i])
        else:
            grp, qty = self.model.live[self.keys[i]]
            if response.body.get("rows") != [{"grp": grp, "qty": qty}]:
                failures.fail(f"request {i} read({self.keys[i]}): {response.body}")

    def drive(self, client: WindowClient, first: int, last: int) -> None:
        """Requests ``[first, last)`` in blocks, a speed sample between."""
        for lo in range(first, last, BLOCK_REQUESTS):
            self.meter.mark(lo)
            client.run_block(
                self.frames,
                lo,
                min(last, lo + BLOCK_REQUESTS),
                self.sent,
                self.latency,
                self.on_response,
            )
        self.meter.mark(last)

    def wire_counts(self, client) -> tuple[dict, dict]:
        stats = client.stats(tenant=TENANT)
        return stats, layers.flatten_counts(stats, client.metrics())

    def run(self) -> dict:
        try:
            return self._run()
        finally:
            self.stop(kill=True)

    def _run(self) -> dict:
        sizes, meter = self.sizes, self.meter
        self.generate()
        gc.collect()
        gc.freeze()  # keep the collector off the pre-generated inputs

        setup_s = []
        for k in range(sizes.setups):
            if self.proc is not None:
                self.stop(kill=False)
                shutil.rmtree(self.path)
            self.path = os.path.join(self.workdir, f"server-{k}")
            t0 = perf_counter()
            self.setup()
            setup_s.append(perf_counter() - t0)

        first, last = sizes.warmup, sizes.warmup + sizes.ops
        client = WindowClient(self.port)
        admin = self.admin()
        try:
            self.drive(client, 0, first)
            _, before = self.wire_counts(admin)
            if self.traced:
                self.signal_server(signal.SIGUSR2)  # tracing on
            self.drive(client, first, last)
            if self.traced:
                self.signal_server(signal.SIGUSR2)  # tracing off
            after_stats, after = self.wire_counts(admin)
            counts = layers.delta(after, before)
            server_trace = None
            if self.traced:
                self.drive(client, last, self.total)
                server_trace = self.server_spans()
            durable = int(after_stats["nvm"]["allocated_bytes"])
            space_amp = durable / self.model.user_bytes
            peak_rss = self.server_peak_rss_mib()
        finally:
            client.close()
            admin.close()

        cycles = [self.restart_cycle(cycle) for cycle in range(sizes.cycles)]
        self.stop(kill=False)

        # The client mostly waits for the server process: all of its wall
        # time is (someone's) CPU time, so all of it is rescaled.
        stream = meter.stream(first, last, self.latency)
        kinds = np.asarray(self.kinds[first:last])
        result = end_to_end_result(
            stream=stream,
            ops=sizes.ops,
            kinds=kinds,
            is_write=kinds == "insert",
            setup_s=setup_s,
            restart_s=[c["restart_s"] for c in cycles],
            restart_factor=1.0,  # process start-up does not follow the kernel
            space_amp=space_amp,
            peak_rss_mb=peak_rss,
        )
        result["protocol"] = {
            "server": "python -m repro.server --mode nvm (CLI defaults)",
            "loop": "closed",
            "connections": CONNECTIONS,
            "window": WINDOW,
            "client_threads": 1,
            "sizes": plain(sizes),
            "timed_wall_s": stream["wall_s"],
            "block_requests": BLOCK_REQUESTS,
            "durable_bytes": durable,
            "user_bytes": self.model.user_bytes,
            "live_rows": self.model.count,
        }
        if self.traced:
            result["per_layer"], result["trace"] = self.trace_report(
                server_trace,
                counts,
                after_stats,
                durable,
                stream["raw_latency"],
                kinds,
                cycles,
                stream["host_speed"],
            )
        return result

    # -- restart ---------------------------------------------------------

    def restart_cycle(self, cycle: int):
        failures, model = self.failures, self.model
        lo = INFLIGHT_BASE + cycle * INFLIGHT_REQUESTS
        burst = [_probe_row(lo + j) for j in range(INFLIGHT_REQUESTS)]
        with socket.create_connection((HOST, self.port), timeout=30) as sock:
            sock.sendall(
                protocol.pack_request(
                    protocol.Op.HELLO, 0, "", {"version": protocol.PROTOCOL_VERSION}
                )
                + b"".join(
                    protocol.pack_request(
                        protocol.Op.INSERT, j + 1, TENANT, {"table": TABLE, "row": row}
                    )
                    for j, row in enumerate(burst)
                )
            )
            # The HELLO's answer shows the server is reading this
            # connection: the kill lands while it works on the inserts.
            sock.recv(4096)
            self.stop(kill=True)
        key = (cycle * 7919) % self.sizes.preload
        row = _probe_row(PROBE_BASE + cycle)

        def first_answers():
            t0 = perf_counter()
            listening_s = self.spawn(trace_on_start=True)
            with ReproClient(HOST, self.port, timeout=60) as client:
                t_up = perf_counter()
                got = client.query(TABLE, Eq("id", key), tenant=TENANT)
                t_query = perf_counter()
                count = client.aggregate(TABLE, "count", tenant=TENANT)
                t_count = perf_counter()
                client.insert(TABLE, row, tenant=TENANT)
                t1 = perf_counter()
            return got, count, listening_s, (t0, t_up, t_query, t_count, t1)

        got, count, listening_s, (t0, t_up, t_query, t_count, t1) = first_answers()

        failures.check(
            same_rows(got, model.expected(key)),
            f"first point read after restart {cycle}: {got}",
        )
        failures.check(
            model.count <= count <= model.count + INFLIGHT_REQUESTS,
            f"first count after restart {cycle}: {count}, acked {model.count}",
        )
        model.insert_row(row)
        with self.admin() as client:
            # A request that was on the wire at the kill was never
            # answered: it may have committed or not, but never in part.
            for sent_row in burst:
                found = client.query(TABLE, Eq("id", sent_row["id"]), tenant=TENANT)
                failures.check(
                    found in ([], [sent_row]),
                    f"in-flight insert {sent_row['id']} recovered in part: {found}",
                )
                if found:
                    model.insert_row(sent_row)
            failures.check(
                same_rows(client.query(TABLE, Eq("id", row["id"]), tenant=TENANT), [row]),
                f"first committed insert after restart {cycle} not readable",
            )
            if cycle == 0:
                check_restart(
                    WireReader(client, TENANT, TABLE, "qty"),
                    model,
                    None,
                    failures,
                    random.Random(self.seed),
                )
            report = client.recovery_reports(TENANT)[TENANT]
        detail = layers.recovery_sample(report)
        detail.update(
            restart_s=t1 - t0,
            process_start_s=max(0.0, listening_s - detail["engine_s"]),
            first_query_s=t_query - t_up,
            first_count_s=t_count - t_query,
            first_commit_s=t1 - t_count,
        )
        if self.traced:
            summary = self.server_spans()["summary"]
            detail["ensure_current_s"] = summary.get("index.ensure_current", {}).get(
                "self_s", 0.0
            )
        return detail

    # -- tracing ---------------------------------------------------------

    def trace_report(
        self, server_trace, counts, after_stats, durable, raw, kinds, cycles, host_speed
    ):
        sizes = self.sizes
        summary = server_trace["summary"]
        covered = server_trace["request_self_s"] / float(raw.sum())
        first = sizes.warmup
        # Overhead: the last traced blocks against the untraced reference
        # blocks that followed them, about as many requests each.
        reference = self.meter.stream(first + sizes.ops, self.total, self.latency)
        timed = self.meter.stream(first, first + sizes.ops, self.latency)["blocks"]
        last_traced = timed[-len(reference["blocks"]) :]
        traced_rate = sum(b["ops"] for b in last_traced) / sum(
            b["wall_s"] for b in last_traced
        )
        reference_rate = sizes.reference / reference["wall_s"]
        overhead = (reference_rate - traced_rate) / reference_rate
        exec_mean_ms = (
            1e3 * counts.get("server_exec_seconds.sum", 0.0)
            / max(1.0, counts.get("server_exec_seconds.count", 0.0))
        )
        op_p50 = {
            kind: float(np.median(raw[kinds == kind])) * 1e3 for kind in set(kinds.tolist())
        }
        writes = int((kinds == "insert").sum())
        per_layer = layers.layer_metrics(
            timed_spans=summary,
            counts=counts,
            ends=layers.table_ends(after_stats),
            allocated_bytes=float(durable),
            ops=sizes.ops,
            user_bytes_written=writes * AccountsModel.row_bytes,
            op_p50_ms=op_p50,
            tail_ms={
                "write": latency_summary(raw[kinds == "insert"])["tail_ms"],
                "read": latency_summary(raw[kinds != "insert"])["tail_ms"],
            },
            cycles=cycles,
            merge_stall_max_ms=0.0,
            trace_overhead_share=overhead,
            covered_share=covered,
            host_speed=host_speed,
            outside_engine_ms=float(raw.mean()) * 1e3 - exec_mean_ms,
        )
        payload = {
            "workload": self.name,
            "what": (
                "server-side spans of the timed requests; op = wire request id "
                "= stream position + 1; client latencies are not spans"
            ),
            "covered_share": covered,
            "untraced_share": 1.0 - covered,
            "summary": summary,
            "spans": server_trace["spans"],
        }
        return per_layer, payload


def _probe_row(key: int) -> dict:
    return {"id": key, "grp": f"g{key % GROUPS}", "qty": key % 1000}
