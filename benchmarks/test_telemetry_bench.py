"""Telemetry fan-out and relay-tree benchmark.

Measures the streaming tier against the acceptance bars of the
telemetry subsystem:

* ``fanout`` — aggregate delivered reports/s while one batched server
  fans a publish stream out to 64/256/1024 concurrent TCP subscribers
  with zero codec errors.  Subscribers are header-scanning drainer
  processes: they negotiate protocol v2, then count frames by walking
  wire headers (struct unpack + payload skip, descending into BATCH
  envelopes) without JSON-decoding payloads, so the measurement is
  dominated by server-side fan-out cost rather than client parse cost.
* ``relay_tree`` — a simulated 10 000-host fleet streamed through a
  two-level relay tree (two edge servers -> two mid-tier relays -> one
  root relay), verifying per-host origin identity survives both hops
  and measuring end-to-end relayed frames/s.
* ``slow_subscriber`` — per-overflow-policy behaviour with one
  deliberately slow subscriber in the fan-out: ``drop-oldest`` and
  ``coalesce`` must never stall the publisher; ``block`` must stall
  (that is its contract) while losing nothing.

Results are written to ``BENCH_telemetry.json`` at the repository root
so future PRs can diff the trajectory.  Marked ``slow`` + ``telemetry``:
the tier-1 suite (``testpaths = ["tests"]``) never collects it; run it
explicitly with
``PYTHONPATH=src python -m pytest benchmarks/test_telemetry_bench.py -q``.
"""

from __future__ import annotations

import json
import multiprocessing
import platform
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.core.messages import AggregatedPowerReport
from repro.telemetry import wire
from repro.telemetry.client import TelemetryClient
from repro.telemetry.relay import TelemetryRelay
from repro.telemetry.server import (BatchPolicy, OverflowPolicy,
                                    TelemetryServer)
from repro.telemetry.wire import FrameKind, ReportEvent

pytestmark = [pytest.mark.slow, pytest.mark.telemetry]

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"

#: Subscriber counts swept in the fan-out measurement, with the number
#: of reports published at each width (wider sweeps publish fewer
#: frames so every width finishes in a few wall-clock seconds while
#: still delivering hundreds of thousands of frames in aggregate).
FANOUT_SWEEP = ((64, 2000), (256, 800), (1024, 300))
#: Header-scanning drainer processes the subscriber load is spread over.
DRAINER_PROCS = 2
#: Hosts simulated in the relay-tree measurement.
FLEET_HOSTS = 10_000
#: Relay levels between the edge servers and the root (edge -> mid ->
#: root is two relay hops).
FLEET_LEVELS = 2
#: Reports published in each slow-subscriber run.
SLOW_REPORTS = 400


def _report(time_s: float) -> AggregatedPowerReport:
    return AggregatedPowerReport(
        time_s=time_s, period_s=1.0,
        by_pid={100: 4.2, 101: 1.9, 102: 0.7},
        idle_w=31.48, formula="hpc")


# --------------------------------------------------------------------------
# Header-scanning drainer processes


def _scan_frames(buffer: bytearray) -> int:
    """Count REPORT frames in *buffer*, consuming complete frames.

    Walks wire headers and skips payload bytes without decoding them.
    A BATCH envelope's body is a raw concatenation of complete inner
    frames, so the scan descends into it by consuming only the
    envelope header; partially-received inner frames stay buffered for
    the next pass exactly like partially-received bare frames.
    """
    count = 0
    offset = 0
    size = len(buffer)
    header = wire._HEADER
    header_size = wire.HEADER_SIZE
    report_kind = int(FrameKind.REPORT)
    batch_kind = int(FrameKind.BATCH)
    while size - offset >= header_size:
        _magic, _version, kind, length = header.unpack_from(buffer, offset)
        if kind == batch_kind:
            offset += header_size
            continue
        end = offset + header_size + length
        if end > size:
            break
        if kind == report_kind:
            count += 1
        offset = end
    del buffer[:offset]
    return count


def _drain_proc(port: int, connections: int, expect: int, conn) -> None:
    """Hold *connections* subscriptions and header-scan until done.

    Runs in a child process: opens every socket, handshakes protocol
    v2, then scans arriving bytes in a selector loop until each
    connection counted *expect* REPORT frames.  Reports
    ``(total_reports, errors)`` back over *conn* and exits.
    """
    import selectors

    sel = selectors.DefaultSelector()
    counts = {}
    buffers = {}
    errors = 0
    socks = []
    try:
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=30.0)
            sock.sendall(wire.encode_frame(
                FrameKind.HELLO,
                {"agent": "bench-drainer", "versions": [1, 2]}))
            sock.sendall(wire.encode_frame(
                FrameKind.SUBSCRIBE, {"downsample": 1}))
            sock.setblocking(False)
            sel.register(sock, selectors.EVENT_READ)
            counts[sock] = 0
            buffers[sock] = bytearray()
            socks.append(sock)
        pending = set(socks)
        while pending:
            for key, _events in sel.select(timeout=30.0):
                sock = key.fileobj
                try:
                    data = sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                except OSError:
                    data = b""
                if not data:
                    errors += 1
                    sel.unregister(sock)
                    pending.discard(sock)
                    continue
                buffer = buffers[sock]
                buffer.extend(data)
                counts[sock] += _scan_frames(buffer)
                if counts[sock] >= expect and sock in pending:
                    pending.discard(sock)
                    sel.unregister(sock)
        conn.send((sum(counts.values()), errors))
    except Exception:  # noqa: BLE001 - reported, not raised
        conn.send((sum(counts.values()), errors + 1))
    finally:
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
        conn.close()


def _measure_fanout(subscribers: int, reports: int) -> dict:
    server = TelemetryServer(port=0, overflow=OverflowPolicy.BLOCK,
                             queue_capacity=1024,
                             batch=BatchPolicy()).start()
    ctx = multiprocessing.get_context("fork")
    procs = []
    pipes = []
    per_proc = subscribers // DRAINER_PROCS
    remainder = subscribers - per_proc * DRAINER_PROCS
    for index in range(DRAINER_PROCS):
        count = per_proc + (1 if index < remainder else 0)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_drain_proc,
                           args=(server.port, count, reports, child_conn),
                           daemon=True)
        proc.start()
        child_conn.close()
        procs.append(proc)
        pipes.append(parent_conn)
    assert server.wait_for_subscribers(subscribers, timeout=60.0)

    start = time.perf_counter()
    for index in range(reports):
        server.publish_report(_report(float(index)))
    # Snapshot while the subscriptions are still connected; drainer
    # processes hang up the moment their count is reached.
    stats = server.stats()
    received = 0
    errors = 0
    for parent_conn in pipes:
        assert parent_conn.poll(timeout=120.0), "drainer timed out"
        got, bad = parent_conn.recv()
        received += got
        errors += bad
    elapsed = time.perf_counter() - start

    dropped = sum(sub["frames_dropped"] for sub in stats["subscribers"])
    high_water = max((sub["queue_high_water"]
                      for sub in stats["subscribers"]), default=0)
    for proc in procs:
        proc.join(timeout=30.0)
    server.stop()
    assert errors == 0
    assert dropped == 0
    assert received == reports * subscribers
    return {
        "subscribers": subscribers,
        "published": reports,
        "delivered": received,
        "delivered_per_sec": round(received / elapsed, 1),
        "published_per_sec": round(reports / elapsed, 1),
        "queue_high_water": high_water,
        "codec_errors": errors,
    }


# --------------------------------------------------------------------------
# 10k-host fleet through a two-level relay tree


def _fleet_payload(host: str, time_s: float) -> dict:
    payload = _report(time_s).to_wire()
    payload["host"] = host
    return payload


def _measure_relay_tree(hosts: int) -> dict:
    """Two edge servers impersonate *hosts* fleet members; frames flow
    edge -> mid relay -> root relay and a client at the root verifies
    per-host origin identity survived both hops."""
    lossless = {"overflow": OverflowPolicy.BLOCK, "queue_capacity": 2048}
    edges = [TelemetryServer(host_label=f"edge-{index}",
                             **lossless).start()
             for index in range(2)]
    mids = [TelemetryRelay((("127.0.0.1", edge.port),), **lossless).start()
            for edge in edges]
    root = TelemetryRelay(tuple(("127.0.0.1", mid.port)
                                for mid in mids), **lossless).start()
    consumer = TelemetryClient("127.0.0.1", root.port,
                               agent="bench-fleet-consumer")
    consumer.connect()
    assert root.wait_for_subscribers(1, timeout=30.0)
    # Nothing may be published until every hop's uplink subscription is
    # live: there are no replay windows in this tree, so early frames
    # would simply miss the not-yet-connected tier.
    for edge in edges:
        assert edge.wait_for_subscribers(1, timeout=30.0)
    for mid in mids:
        assert mid.wait_for_subscribers(1, timeout=30.0)

    half = hosts // 2
    start = time.perf_counter()

    def publish(edge: TelemetryServer, first: int, count: int) -> None:
        for index in range(first, first + count):
            edge.publish_frame(
                FrameKind.REPORT,
                _fleet_payload(f"h{index:05d}", float(index)))

    feeder = threading.Thread(
        target=publish, args=(edges[1], half, hosts - half), daemon=True)
    feeder.start()
    publish(edges[0], 0, half)
    feeder.join(timeout=120.0)

    seen = {}
    identity_preserved = True
    for event in consumer:
        if not isinstance(event, ReportEvent):
            continue
        host, epoch, _seq = event.identity()
        if epoch is None:
            identity_preserved = False
        seen[host] = epoch
        if len(seen) >= hosts:
            break
    elapsed = time.perf_counter() - start
    assert root.wait_until_relayed(hosts, timeout=30.0)

    stats = root.stats()
    duplicates = sum(up["duplicates_dropped"] for up in stats["uplinks"])
    consumer.close()
    root.stop()
    for mid in mids:
        mid.stop()
    for edge in edges:
        edge.stop()
    assert len(seen) == hosts
    assert identity_preserved
    assert duplicates == 0
    return {
        "hosts": hosts,
        "levels": FLEET_LEVELS,
        "frames": hosts,
        "relayed_per_sec": round(hosts / elapsed, 1),
        "distinct_hosts": len(seen),
        "duplicates_dropped": duplicates,
        "identity_preserved": identity_preserved,
    }


# --------------------------------------------------------------------------
# Slow-subscriber overflow behaviour (unchanged from the pre-batch tier)


class _Drainer:
    """One subscriber connection drained on its own thread."""

    def __init__(self, port: int, expect: int = 0) -> None:
        self.client = TelemetryClient("127.0.0.1", port,
                                      agent="repro-bench-drainer")
        self.expect = expect
        self.received = 0
        self.codec_errors = 0
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.client.connect()
        self.thread.start()

    def _run(self) -> None:
        try:
            for event in self.client:
                if isinstance(event, ReportEvent):
                    self.received += 1
                    if self.expect and self.received >= self.expect:
                        return
        except Exception:  # noqa: BLE001 - counted, not raised
            self.codec_errors += 1

    def stop(self) -> None:
        self.client.close()
        self.thread.join(timeout=30.0)


def _measure_slow_subscriber(policy: str) -> dict:
    """One paused subscriber (tiny queue) beside one healthy drainer."""
    server = TelemetryServer(port=0, overflow=policy,
                             queue_capacity=8).start()
    healthy = _Drainer(server.port)
    slow = TelemetryClient("127.0.0.1", server.port,
                           agent="repro-bench-slow").connect()
    assert server.wait_for_subscribers(2, timeout=30.0)
    # The slow subscriber never reads: its server-side queue fills and
    # the socket buffer backs up, exactly like a wedged consumer.
    paused = [sub for sub in server.subscribers()
              if sub.agent == "repro-bench-slow"]
    assert len(paused) == 1
    paused[0].pause()

    start = time.perf_counter()
    unblocker = None
    if policy == OverflowPolicy.BLOCK:
        # The publisher will stall by design; resume the consumer once
        # the first stall is counted so the run completes.
        def _unblock() -> None:
            server.wait_for(lambda: server.stalls >= 1, timeout=30.0)
            paused[0].resume()

        unblocker = threading.Thread(target=_unblock, daemon=True)
        unblocker.start()
    for index in range(SLOW_REPORTS):
        server.publish_report(_report(float(index)))
    publish_wall_s = time.perf_counter() - start
    if unblocker is not None:
        unblocker.join(timeout=30.0)
    else:
        paused[0].resume()

    stats = server.stats()
    slow_stats = next(sub for sub in stats["subscribers"]
                      if sub["agent"] == "repro-bench-slow")
    result = {
        "policy": policy,
        "published": SLOW_REPORTS,
        "publish_wall_s": round(publish_wall_s, 4),
        "stalls": stats["stalls"],
        "slow_dropped": slow_stats["frames_dropped"],
        "slow_high_water": slow_stats["queue_high_water"],
    }
    slow.close()
    healthy.stop()
    server.stop()
    assert healthy.codec_errors == 0
    return result


def test_telemetry_bench():
    fanout = [_measure_fanout(count, reports)
              for count, reports in FANOUT_SWEEP]
    relay_tree = _measure_relay_tree(FLEET_HOSTS)
    slow = [_measure_slow_subscriber(policy)
            for policy in OverflowPolicy.ALL]

    # The acceptance bar: 64 subscribers at >= 4x the pre-batch 37k/s
    # aggregate, zero codec errors, queue memory bounded by the cap.
    widest = {entry["subscribers"]: entry for entry in fanout}
    assert widest[64]["delivered_per_sec"] >= 148_000
    for entry in fanout:
        assert entry["codec_errors"] == 0
        assert entry["queue_high_water"] <= 1024

    assert relay_tree["distinct_hosts"] == FLEET_HOSTS
    assert relay_tree["identity_preserved"]
    assert relay_tree["duplicates_dropped"] == 0

    by_policy = {entry["policy"]: entry for entry in slow}
    assert by_policy[OverflowPolicy.DROP_OLDEST]["stalls"] == 0
    assert by_policy[OverflowPolicy.COALESCE]["stalls"] == 0
    assert by_policy[OverflowPolicy.BLOCK]["stalls"] >= 1
    assert by_policy[OverflowPolicy.BLOCK]["slow_dropped"] == 0
    for policy in (OverflowPolicy.DROP_OLDEST, OverflowPolicy.COALESCE):
        assert by_policy[policy]["slow_high_water"] <= 8

    results = {
        "fanout": fanout,
        "relay_tree": relay_tree,
        "slow_subscriber": slow,
        # Headline scalars duplicated at the top level so CI's
        # diff_bench.py (flat-key lookups) can trend them across PRs.
        "fanout_64_delivered_per_sec": widest[64]["delivered_per_sec"],
        "fanout_1024_delivered_per_sec": widest[1024]["delivered_per_sec"],
        "relay_tree_relayed_per_sec": relay_tree["relayed_per_sec"],
        "python": platform.python_version(),
    }
    BENCH_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                          + "\n")
    lines = [f"{entry['subscribers']:4d} subscribers: "
             f"{entry['delivered_per_sec']:>10,.0f} delivered/s "
             f"(high-water {entry['queue_high_water']})"
             for entry in fanout]
    lines += [f"{relay_tree['hosts']:,}-host fleet / "
              f"{relay_tree['levels']}-level relay tree: "
              f"{relay_tree['relayed_per_sec']:>10,.0f} relayed/s"]
    lines += [f"{entry['policy']:>12s}: stalls={entry['stalls']} "
              f"dropped={entry['slow_dropped']} "
              f"wall={entry['publish_wall_s']}s"
              for entry in slow]
    print("\n" + "\n".join(lines) + f"\n-> {BENCH_PATH.name}")
