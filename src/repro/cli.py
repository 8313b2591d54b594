"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main flows:

* ``specs``    — print a preset machine's Table 1-style specification,
* ``learn``    — run the Figure 1 pipeline and write the model as JSON,
* ``monitor``  — run a workload under live monitoring, print per-period
  estimates (optionally CSV/JSONL output),
* ``serve``    — run a workload under monitoring while streaming the
  estimates to TCP telemetry subscribers,
* ``subscribe`` — connect to a telemetry server and print its stream,
* ``relay``    — subscribe to upstream telemetry server(s) and re-serve
  the merged stream downstream (a node in a relay tree),
* ``replay``   — the Figure 3 experiment: SPECjbb vs PowerSpy with an
  ASCII chart and the median error.
* ``matrix``   — scenario-matrix chaos campaigns: ``matrix run`` expands
  a declarative TOML into cells, checks invariants and shrinks failing
  cells; ``matrix report`` summarizes a saved campaign report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.report import ascii_chart, format_metrics, render_table
from repro.analysis.traces import PowerTrace, compare
from repro.core.components import default_registry
from repro.core.model import PowerModel
from repro.core.monitor import PowerAPI
from repro.core.pipeline import (ControlSpec, PipelineSpec, StageSpec,
                                 TelemetrySpec, parse_uplink)
from repro.core.reporters import ConsoleReporter, InMemoryReporter
from repro.core.sampling import SamplingCampaign, learn_power_model
from repro.errors import ReproError
from repro.os.kernel import SimKernel
from repro.powermeter.powerspy import PowerSpy
from repro.simcpu.spec import PRESETS, preset
from repro.telemetry.server import OverflowPolicy
from repro.workloads import WORKLOADS
from repro.workloads.specjbb import SpecJbbWorkload
from repro.workloads.stress import CpuStress, MemoryStress


class _GracefulStop:
    """SIGINT/SIGTERM handlers that request a stop instead of dying.

    ``monitor`` and ``serve`` advance the simulation in period-sized
    chunks and poll :attr:`requested` between chunks, so a signal ends
    the run at the next period boundary with reporters flushed and the
    telemetry server shut down cleanly (exit code 0) rather than with a
    KeyboardInterrupt traceback and a torn output file.  Handlers are
    only installed from the main thread (signal.signal raises anywhere
    else — e.g. when tests drive ``main()`` from a worker thread) and
    the previous handlers are restored on exit.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.requested = False
        self.signal_name: Optional[str] = None
        self._saved = {}

    def __enter__(self) -> "_GracefulStop":
        if threading.current_thread() is threading.main_thread():
            for signum in self._SIGNALS:
                self._saved[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *_exc) -> None:
        for signum, previous in self._saved.items():
            signal.signal(signum, previous)
        self._saved.clear()

    def _handle(self, signum, _frame) -> None:
        self.requested = True
        self.signal_name = signal.Signals(signum).name


def _run_interruptible(api, duration_s: float, period_s: float,
                       stop: _GracefulStop, pace: float = 0.0) -> None:
    """Advance *api* for *duration_s*, one period at a time.

    Equivalent to ``api.run(duration_s)`` (the virtual clock steps in
    kernel quanta either way) but checks *stop* between periods and,
    with ``pace > 0``, sleeps ``period_s * pace`` wall-clock seconds per
    virtual period so wall-clock tools (subscribers, signal senders)
    can interleave with the run.
    """
    remaining = duration_s
    while remaining > 1e-9 and not stop.requested:
        step = min(period_s, remaining)
        api.run(step)
        remaining -= step
        if pace > 0 and remaining > 1e-9 and not stop.requested:
            time.sleep(step * pace)


def _add_run_flags(command: argparse.ArgumentParser) -> None:
    """The workload-run flags ``monitor`` and ``serve`` share."""
    command.add_argument("--model", type=Path, default=None,
                         help="model JSON (learned on the fly if omitted)")
    command.add_argument("--workload", default="cpu",
                         choices=sorted(WORKLOADS))
    command.add_argument("--duration", type=float, default=30.0)
    command.add_argument("--period", type=float, default=1.0)


def _add_server_flags(command: argparse.ArgumentParser) -> None:
    """The telemetry-server flags ``serve`` and ``relay`` share."""
    command.add_argument("--replay-window", type=int, default=256,
                         help="frames of replay history kept so resuming "
                              "subscribers can catch up without loss "
                              "(0 = disable replay)")
    command.add_argument("--max-subscribers", type=int, default=None,
                         help="refuse connections beyond this many "
                              "concurrent subscribers (0 = unlimited, "
                              "the default)")
    command.add_argument("--batch-frames", dest="batch_max_frames",
                         type=int, default=None,
                         help="max frames coalesced per wire batch "
                              "(1 disables batching)")
    command.add_argument("--batch-bytes", dest="batch_max_bytes",
                         type=int, default=None,
                         help="max payload bytes coalesced per wire batch")
    command.add_argument("--batch-latency", dest="batch_max_latency_s",
                         type=float, default=None, metavar="SECONDS",
                         help="hold a partial batch up to this long "
                              "waiting for more frames (0 = flush "
                              "immediately)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PowerAPI reproduction: learn CPU power models and "
                    "monitor per-process power on a simulated machine.")
    parser.add_argument("--cpu", default="i3-2120",
                        choices=sorted(PRESETS),
                        help="machine preset (default: the paper's i3-2120)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("specs", help="print the machine specification")

    learn = commands.add_parser("learn", help="learn a power model")
    learn.add_argument("--output", type=Path, default=Path("model.json"),
                       help="where to write the model JSON")
    learn.add_argument("--quick", action="store_true",
                       help="sample only the ladder endpoints (faster)")
    learn.add_argument("--workers", type=int, default=1,
                       help="processes for the sampling campaign "
                            "(1 = serial, 0 = one per CPU); the learned "
                            "model is identical for any value")

    monitor = commands.add_parser("monitor",
                                  help="monitor a workload's power")
    _add_run_flags(monitor)
    monitor.add_argument("--csv", type=Path, default=None,
                         help="also write per-period CSV here")
    monitor.add_argument("--faults", default=None, metavar="SPEC",
                         help="inject faults while monitoring; SPEC is "
                              "';'-separated kind@time[:args] entries "
                              "(meter-dropout@T:DOWN, pid-exit@T[:IDX], "
                              "starve@T:DUR[:SLOTS], hpc-loss@T:DUR, "
                              "crash@T:ACTOR) or random:SEED[:DURATION] "
                              "for a seeded campaign")
    monitor.add_argument("--pipeline", type=Path, default=None,
                         metavar="FILE",
                         help="assemble the pipeline from a declarative "
                              "JSON/TOML PipelineSpec file instead of the "
                              "default wiring (pids are re-targeted to "
                              "the spawned workload)")
    monitor.add_argument("--cap", type=float, default=None, metavar="WATTS",
                         help="hold estimated package power at or below "
                              "this cap via the closed control loop "
                              "(DVFS ceiling stepping, then process "
                              "throttling)")
    monitor.add_argument("--cap-policy", default="deadband",
                         choices=default_registry().names("policy"),
                         help="control policy driving the cap "
                              "(default: deadband)")

    # The serve/relay server flags are named (dest) after the
    # TelemetrySpec fields they set; see _telemetry_spec.
    serve = commands.add_parser(
        "serve", help="monitor a workload and stream the estimates to "
                      "TCP telemetry subscribers")
    _add_run_flags(serve)
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port to listen on (0 = ephemeral; the "
                            "chosen port is printed)")
    serve.add_argument("--overflow", default=None,
                       choices=OverflowPolicy.ALL,
                       help="what a full subscriber queue does with the "
                            "next frame (default: "
                            f"{OverflowPolicy.DROP_OLDEST})")
    serve.add_argument("--queue-capacity", type=int, default=None,
                       help="per-subscriber frame queue bound "
                            "(default: 256)")
    serve.add_argument("--heartbeat-every", type=int, default=None,
                       help="emit a heartbeat frame every N reports "
                            "(0 = off, the default)")
    serve.add_argument("--host-label", default=None,
                       help="host name stamped on every frame (for "
                            "fleet aggregation)")
    serve.add_argument("--await-subscribers", type=int, default=0,
                       metavar="N",
                       help="wait for N subscribers before starting the "
                            "run")
    serve.add_argument("--await-timeout", type=float, default=30.0,
                       help="give up waiting for subscribers after this "
                            "many seconds")
    serve.add_argument("--pace", type=float, default=0.0,
                       help="wall-clock seconds slept per virtual "
                            "second (0 = run as fast as possible)")
    serve.add_argument("--net-faults", default=None, metavar="SPEC",
                       help="inject network faults into accepted "
                            "subscriber connections; SPEC is "
                            "';'-separated kind@time[:args] entries "
                            "(partition@T[:DUR], reset@T, corrupt@T[:N], "
                            "truncate@T, stall@T[:DUR[:DELAY]]) or "
                            "random:SEED[:DURATION] for a seeded plan")
    serve.add_argument("--uplink", dest="uplinks", action="append",
                       default=None, metavar="HOST:PORT",
                       help="also relay an upstream telemetry server "
                            "into this stream (repeatable; makes this "
                            "server a tree junction merging local and "
                            "upstream frames)")
    _add_server_flags(serve)
    serve.add_argument("--pipeline", type=Path, default=None,
                       metavar="FILE",
                       help="assemble the pipeline from a declarative "
                            "JSON/TOML PipelineSpec file; its [telemetry] "
                            "section (when present) overrides the flags "
                            "above")

    subscribe = commands.add_parser(
        "subscribe", help="connect to a telemetry server and print its "
                          "stream")
    subscribe.add_argument("--host", default="127.0.0.1")
    subscribe.add_argument("--port", type=int, required=True)
    subscribe.add_argument("--pids", default=None,
                           help="comma-separated pid filter")
    subscribe.add_argument("--kinds", default=None,
                           help="comma-separated event kinds "
                                "(report,health,gap,heartbeat)")
    subscribe.add_argument("--downsample", type=int, default=1,
                           help="receive every Nth report")
    subscribe.add_argument("--max-frames", type=int, default=None,
                           help="exit after this many events")
    subscribe.add_argument("--reconnect", action="store_true",
                           help="re-dial with exponential backoff when "
                                "the server goes away (guarded by a "
                                "circuit breaker)")
    subscribe.add_argument("--spool", type=Path, default=None,
                           metavar="DIR",
                           help="journal every received frame to a "
                                "durable spool in DIR and resume from "
                                "the last acknowledged sequence after a "
                                "crash or restart")
    subscribe.add_argument("--net-faults", default=None, metavar="SPEC",
                           help="inject network faults into this "
                                "client's connections (same SPEC "
                                "grammar as serve --net-faults)")

    relay = commands.add_parser(
        "relay", help="subscribe to upstream telemetry server(s) and "
                      "re-serve the merged stream downstream")
    relay.add_argument("--upstream", action="append", required=True,
                       metavar="HOST:PORT",
                       help="upstream server to subscribe to "
                            "(repeatable; streams merge into one "
                            "downstream fan-out)")
    relay.add_argument("--host", default="127.0.0.1")
    relay.add_argument("--port", type=int, default=0,
                       help="downstream listen port (0 = ephemeral)")
    _add_server_flags(relay)
    relay.add_argument("--reconnect", action="store_true",
                       help="re-dial upstreams with exponential backoff "
                            "when they go away")
    relay.add_argument("--spool", type=Path, default=None, metavar="DIR",
                       help="journal each uplink to a durable spool in "
                            "DIR and RESUME upstream after a restart")
    relay.add_argument("--duration", type=float, default=0.0,
                       help="run this many wall-clock seconds then exit "
                            "(0 = until interrupted)")

    replay = commands.add_parser("replay",
                                 help="the Figure 3 SPECjbb experiment")
    replay.add_argument("--model", type=Path, default=None)
    replay.add_argument("--duration", type=float, default=300.0)

    matrix = commands.add_parser(
        "matrix", help="scenario-matrix chaos campaigns")
    matrix_sub = matrix.add_subparsers(dest="matrix_command", required=True)
    mrun = matrix_sub.add_parser(
        "run", help="expand a matrix TOML, run every cell, check "
                    "invariants, shrink failing cells")
    mrun.add_argument("--matrix", type=Path, required=True, metavar="FILE",
                      help="the declarative campaign TOML")
    mrun.add_argument("--output", type=Path, default=None, metavar="FILE",
                      help="write the machine-readable JSON report here "
                           "(shrunk repro TOMLs are written alongside)")
    mrun.add_argument("--workers", type=int, default=1,
                      help="worker processes for the cell fan-out "
                           "(1 = serial, 0 = one per CPU)")
    mrun.add_argument("--cell", default=None, metavar="PATTERN",
                      help="only run cells whose id matches this fnmatch "
                           "pattern (or a single cell index)")
    mrun.add_argument("--no-shrink", action="store_true",
                      help="skip delta-debugging failing cells")
    mrun.add_argument("--max-shrink", type=int, default=4,
                      help="shrink at most this many failing cells")
    mrun.add_argument("--shrink-budget", type=int, default=48,
                      help="candidate re-runs allowed per shrink")
    mrun.add_argument("--bench", type=Path, default=None, metavar="FILE",
                      help="write the BENCH headline JSON here")
    mreport = matrix_sub.add_parser(
        "report", help="summarize a saved campaign report JSON")
    mreport.add_argument("report", type=Path,
                         help="report file from `matrix run --output`")
    mreport.add_argument("--failures-only", action="store_true",
                         help="only list cells that violated an invariant")
    return parser


def _quick_campaign(spec) -> SamplingCampaign:
    return SamplingCampaign(
        spec,
        workloads=[CpuStress(utilization=1.0, threads=spec.num_threads),
                   MemoryStress(utilization=1.0, threads=spec.num_threads,
                                working_set_bytes=64 * 1024 ** 2),
                   MemoryStress(utilization=1.0, threads=spec.num_threads,
                                working_set_bytes=2 * 1024 ** 2)],
        frequencies_hz=[spec.min_frequency_hz, spec.max_frequency_hz],
        window_s=1.0, windows_per_run=4, settle_s=0.5)


def _paper_campaign(spec) -> SamplingCampaign:
    return SamplingCampaign(
        spec,
        workloads=[CpuStress(utilization=1.0, threads=spec.num_threads),
                   MemoryStress(utilization=1.0, threads=spec.num_threads,
                                working_set_bytes=64 * 1024 ** 2),
                   MemoryStress(utilization=1.0, threads=spec.num_threads,
                                working_set_bytes=2 * 1024 ** 2)],
        window_s=1.0, windows_per_run=4, settle_s=0.5)


def _load_or_learn_model(spec, model_path: Optional[Path],
                         quick: bool = True, out=sys.stdout) -> PowerModel:
    if model_path is not None:
        return PowerModel.from_json(model_path.read_text())
    print("no model given; learning one now ...", file=out)
    campaign = _quick_campaign(spec) if quick else _paper_campaign(spec)
    return learn_power_model(spec, campaign=campaign,
                             idle_duration_s=10.0).model


def cmd_specs(args, out=sys.stdout) -> int:
    """Print the selected preset's Table 1-style specification."""
    spec = preset(args.cpu)
    print(render_table(spec.specification_table(),
                       title=f"{spec.vendor} {spec.model} specification"),
          file=out)
    return 0


def cmd_learn(args, out=sys.stdout) -> int:
    """Run the Figure 1 pipeline and write the model JSON."""
    spec = preset(args.cpu)
    campaign = _quick_campaign(spec) if args.quick else _paper_campaign(spec)
    print(f"sampling {args.cpu} "
          f"({len(campaign.frequencies_hz)} frequencies) ...", file=out)
    report = learn_power_model(spec, campaign=campaign,
                               idle_duration_s=15.0,
                               workers=getattr(args, "workers", 1))
    args.output.write_text(report.model.to_json())
    print(report.model.equation_text(), file=out)
    print(f"model written to {args.output}", file=out)
    return 0


def _prepare_run(args, out=sys.stdout
                 ) -> Tuple[PowerAPI, int, PipelineSpec]:
    """Spawn the workload and describe the pipeline ``monitor``/``serve``
    start.

    The description is ``--pipeline FILE`` re-targeted to the spawned
    pid, or else the default wiring — what ``api.monitor(pid)
    .every(period).spec()`` builds — with its period filled in either
    way.  Returns ``(api, pid, spec)``; the caller adds its sections and
    starts the spec.
    """
    machine = preset(args.cpu)
    model = _load_or_learn_model(machine, args.model, out=out)
    kernel = SimKernel(machine)
    pid = kernel.spawn(WORKLOADS[args.workload](args.duration),
                       name=args.workload)
    if args.pipeline is None:
        spec = PipelineSpec(pids=(pid,), period_s=args.period)
    else:
        spec = PipelineSpec.from_file(args.pipeline)
        spec = dataclasses.replace(
            spec, pids=(pid,),
            period_s=(args.period if spec.period_s is None
                      else spec.period_s))
        print(f"pipeline: {args.pipeline} (sensor={spec.sensor.type}, "
              f"formula={spec.formula.type}, "
              f"reporters={[r.type for r in spec.reporters]})", file=out)
    return PowerAPI(kernel, model, period_s=spec.period_s), pid, spec


def _telemetry_spec(args) -> TelemetrySpec:
    """The ``serve``/``relay`` server flags as a :class:`TelemetrySpec`.

    Every such flag's dest is the spec field it sets; flags left unset
    stay None, so the server's own defaults apply.
    """
    fields = {field.name: getattr(args, field.name)
              for field in dataclasses.fields(TelemetrySpec)
              if getattr(args, field.name, None) is not None}
    return TelemetrySpec(**fields)


def cmd_monitor(args, out=sys.stdout) -> int:
    """Run a workload under live monitoring, printing per-period rows."""
    api, pid, pipeline_spec = _prepare_run(args, out=out)
    if args.cap is not None:
        pipeline_spec = dataclasses.replace(
            pipeline_spec, control=ControlSpec(
                cap_w=args.cap, policy=StageSpec(args.cap_policy)))
        print(f"power cap: {args.cap:.1f} W ({args.cap_policy} policy)",
              file=out)
    if args.faults:
        pipeline_spec = dataclasses.replace(pipeline_spec,
                                            faults=args.faults)
    if args.csv is not None:
        pipeline_spec = pipeline_spec.with_reporter(
            "csv", path=str(args.csv), control=args.cap is not None)
    memory = InMemoryReporter()
    handle = api.start_pipeline(pipeline_spec, reporters=(memory,))
    api.system.spawn(ConsoleReporter(stream=out), name="console")
    if args.faults:
        print(f"fault plan: {api.injector.plan.describe() or '(empty)'}",
              file=out)
    with _GracefulStop() as stop:
        _run_interruptible(api, args.duration, pipeline_spec.period_s, stop)
    api.flush()
    if stop.requested:
        print(f"\n{stop.signal_name}: stopping early at "
              f"t={api.kernel.time_s:.1f}s; reporters flushed", file=out)

    if handle.pid_aggregator is not None:
        energy = handle.pid_aggregator.energy_by_pid_j.get(pid, 0.0)
        print(f"\n{args.workload}: estimated active energy {energy:.1f} J "
              f"over {args.duration:.0f} s", file=out)
    if handle.control is not None:
        events = handle.control.events
        actions = {}
        for event in events:
            actions[event.action] = actions.get(event.action, 0) + 1
        summary = ", ".join(f"{name} x{count}"
                            for name, count in sorted(actions.items()))
        print(f"cap actuations: {len(events)} "
              f"({summary or 'none'}); final ceiling "
              f"{handle.control.actuator.frequency_hz / 1e9:.2f} GHz",
              file=out)
    if args.faults:
        gaps = memory.gap_count()
        print(f"gap periods: {gaps}; health log "
              f"({len(handle.health)} events):", file=out)
        for event in handle.health:
            print(f"  t={event.time_s:8.2f}s  {event.component:<18} "
                  f"{event.kind:<22} {event.detail}", file=out)
    api.shutdown()
    return 0


def cmd_serve(args, out=sys.stdout) -> int:
    """Monitor a workload while streaming estimates to subscribers."""
    api, _pid, pipeline_spec = _prepare_run(args, out=out)
    telemetry = pipeline_spec.telemetry or _telemetry_spec(args)
    pipeline_spec = dataclasses.replace(pipeline_spec, telemetry=telemetry)
    injector = None
    if args.net_faults:
        from repro.faults import NetworkFaultInjector, NetworkFaultPlan
        net_plan = NetworkFaultPlan.parse(args.net_faults)
        injector = NetworkFaultInjector(net_plan)
        print(f"net fault plan: {net_plan.describe() or '(empty)'}",
              file=out)
    api.start_pipeline(pipeline_spec, reporters=(InMemoryReporter(),))
    server = api.telemetry_servers[-1]
    if injector is not None:
        server.set_transport(injector.wrap)
    if telemetry.uplinks:
        print("telemetry: relaying uplinks "
              f"{', '.join(telemetry.uplinks)}", file=out)
    print(f"telemetry: serving on {server.host}:{server.port} "
          f"(overflow={server.overflow}, "
          f"queue-capacity={server.queue_capacity})", file=out)
    if args.await_subscribers > 0:
        print(f"waiting for {args.await_subscribers} subscriber(s) ...",
              file=out)
        if not server.wait_for_subscribers(args.await_subscribers,
                                           timeout=args.await_timeout):
            print(f"warning: only {server.subscriber_count} subscriber(s) "
                  f"after {args.await_timeout:.0f}s; starting anyway",
                  file=out)
    with _GracefulStop() as stop:
        _run_interruptible(api, args.duration, pipeline_spec.period_s, stop,
                           pace=args.pace)
    api.flush()
    if stop.requested:
        print(f"\n{stop.signal_name}: stopping early at "
              f"t={api.kernel.time_s:.1f}s; closing telemetry", file=out)

    stats = server.stats()
    print(f"published {stats['reports_published']} reports, "
          f"{stats['health_published']} health events, "
          f"{stats['gaps_published']} gaps to "
          f"{len(stats['subscribers'])} subscriber(s); "
          f"stalls: {stats['stalls']}", file=out)
    if stats["replay_window"] or stats["resumes_served"] \
            or stats["resumes_rejected"]:
        print(f"  replay: window {stats['replay_window']}, "
              f"{stats['resumes_served']} resume(s) served "
              f"({stats['resumes_rejected']} rejected), "
              f"{stats['frames_replayed']} frame(s) replayed, "
              f"{stats['replay_evictions']} eviction gap(s)", file=out)
    if injector is not None:
        print(f"  net faults injected: {len(injector.injected)}", file=out)
    for sub in stats["subscribers"]:
        print(f"  subscriber {sub['id']} ({sub['agent'] or sub['peer']}): "
              f"{sub['frames_sent']} sent, {sub['frames_dropped']} "
              f"dropped, {sub['bytes_sent']} bytes, queue high-water "
              f"{sub['queue_high_water']}", file=out)
    api.shutdown()
    return 0


def cmd_subscribe(args, out=sys.stdout) -> int:
    """Print a telemetry server's stream, one line per event."""
    from repro.telemetry.client import ReconnectPolicy, TelemetryClient
    from repro.telemetry.wire import (GapTelemetry, Heartbeat,
                                      HealthTelemetry, ReportEvent)
    pids = (None if args.pids is None
            else [int(chunk) for chunk in args.pids.split(",") if chunk])
    kinds = (None if args.kinds is None
             else [chunk.strip() for chunk in args.kinds.split(",")
                   if chunk.strip()])
    breaker = None
    if args.reconnect:
        from repro.faults import CircuitBreaker
        breaker = CircuitBreaker(failure_threshold=5, reset_timeout_s=2.0)
    transport = None
    net_faults = getattr(args, "net_faults", None)
    if net_faults:
        from repro.faults import NetworkFaultInjector, NetworkFaultPlan
        net_plan = NetworkFaultPlan.parse(net_faults)
        transport = NetworkFaultInjector(net_plan).wrap
        print(f"net fault plan: {net_plan.describe() or '(empty)'}",
              file=out)
    spool_dir = getattr(args, "spool", None)
    if spool_dir is not None:
        spool_dir.mkdir(parents=True, exist_ok=True)
    client = TelemetryClient(
        args.host, args.port, pids=pids, kinds=kinds,
        downsample=args.downsample,
        reconnect=ReconnectPolicy() if args.reconnect else None,
        agent="repro-cli-subscribe",
        spool=spool_dir, breaker=breaker, transport=transport)
    if client.spool is not None and client.last_seq is not None:
        print(f"spool: resuming after seq {client.last_seq} "
              f"(epoch {client.stream_epoch or 'unknown'})", file=out)
    try:
        for event in client.events(max_events=args.max_frames):
            if isinstance(event, ReportEvent):
                parts = [f"t={event.report.time_s:8.1f}s",
                         f"total={event.report.total_w:6.2f}W",
                         f"idle={event.report.idle_w:5.2f}W"]
                if event.report.gap:
                    parts.append("gap=1")
                for rpid in event.report.pids():
                    parts.append(
                        f"pid{rpid}={event.report.by_pid[rpid]:5.2f}W")
                if event.host:
                    parts.append(f"host={event.host}")
                print("  ".join(parts), file=out)
            elif isinstance(event, HealthTelemetry):
                print(f"t={event.event.time_s:8.1f}s  health  "
                      f"{event.event.component:<18} "
                      f"{event.event.kind:<22} {event.event.detail}",
                      file=out)
            elif isinstance(event, GapTelemetry):
                print(f"t={event.marker.time_s:8.1f}s  gap     "
                      f"source={event.marker.source} "
                      f"pid={event.marker.pid}", file=out)
            elif isinstance(event, Heartbeat):
                print(f"t={event.time_s:8.1f}s  heartbeat seq={event.seq}",
                      file=out)
    finally:
        client.close()
    print(f"received {client.frames_received} frame(s); "
          f"reconnects: {client.reconnects}", file=out)
    if spool_dir is not None:
        last = client.last_seq if client.last_seq is not None else "-"
        print(f"spool: last seq {last}; "
              f"resumes sent: {client.resumes_sent}; "
              f"duplicates dropped: {client.duplicates_dropped}", file=out)
    return 0


def cmd_relay(args, out=sys.stdout) -> int:
    """Run one relay-tree node until interrupted (or --duration)."""
    from repro.telemetry.client import ReconnectPolicy
    from repro.telemetry.relay import TelemetryRelay
    upstreams = [parse_uplink(u) for u in args.upstream]
    server = _telemetry_spec(args)
    if args.spool is not None:
        args.spool.mkdir(parents=True, exist_ok=True)
    relay = TelemetryRelay(
        upstreams, host=server.host, port=server.port,
        reconnect=ReconnectPolicy() if args.reconnect else None,
        spool_dir=args.spool, **server.server_kwargs())
    relay.start()
    ups = ", ".join(f"{host}:{port}" for host, port in upstreams)
    print(f"relay: serving on {relay.server.host}:{relay.port}; "
          f"uplinks: {ups}", file=out)
    try:
        with _GracefulStop() as stop:
            deadline = (time.monotonic() + args.duration
                        if args.duration > 0 else None)
            while not stop.requested:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                time.sleep(0.1)
        if stop.requested:
            print(f"\n{stop.signal_name}: stopping relay", file=out)
        stats = relay.stats()
    finally:
        relay.stop()
    print(f"relayed {stats['frames_relayed']} frame(s) from "
          f"{len(stats['uplinks'])} uplink(s) to "
          f"{len(stats['server']['subscribers'])} subscriber(s)", file=out)
    for uplink in stats["uplinks"]:
        print(f"  uplink {uplink['upstream']}: "
              f"{uplink['frames_relayed']} relayed, "
              f"{uplink['reconnects']} reconnect(s), "
              f"{uplink['duplicates_dropped']} duplicate(s) dropped",
              file=out)
    return 0


def cmd_replay(args, out=sys.stdout) -> int:
    """Regenerate the Figure 3 SPECjbb experiment."""
    spec = preset(args.cpu)
    model = _load_or_learn_model(spec, args.model, quick=False, out=out)
    kernel = SimKernel(spec)
    meter = PowerSpy(kernel.machine, sample_rate_hz=1.0, seed=777)
    meter.connect()
    pid = kernel.spawn(SpecJbbWorkload(duration_s=args.duration, threads=4),
                       name="specjbb2013")
    api = PowerAPI(kernel, model, period_s=1.0)
    handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
    print(f"replaying SPECjbb2013 for {args.duration:.0f} s ...", file=out)
    api.run(args.duration)

    measured = PowerTrace.from_samples("powerspy", meter.samples)
    estimated = PowerTrace.from_series("powerapi",
                                       handle.reporter.time_series(),
                                       handle.reporter.total_series())
    print(ascii_chart([measured, estimated], width=78, height=16,
                      title="SPECjbb2013: measured vs estimated"), file=out)
    summary = compare(measured, estimated)
    print(format_metrics(summary), file=out)
    print(f"paper median error: 15%; this run: "
          f"{summary['median_ape'] * 100:.1f}%", file=out)
    api.shutdown()
    return 0


def _print_cell_line(payload, out) -> None:
    marker = {"pass": ".", "xfail": "x", "xpass": "X", "fail": "F"}
    line = (f"  [{marker[payload['outcome']]}] {payload['cell_id']} "
            f"({payload['wall_s']:.2f}s)")
    print(line, file=out)
    for violation in payload["violations"]:
        print(f"      - {violation['invariant']}: {violation['detail']}",
              file=out)
    shrunk = payload.get("shrunk")
    if shrunk:
        print(f"      shrunk to faults={shrunk['faults']!r} "
              f"net={shrunk['net_faults']!r} "
              f"(-{shrunk['events_removed']} events, "
              f"{shrunk['runs_used']} runs)", file=out)


def _print_report(report, out, failures_only: bool = False) -> None:
    outcomes = report["outcomes"]
    print(f"matrix {report['name']!r}: {report['cells_run']} of "
          f"{report['cells_total']} cell(s) in {report['wall_s']:.1f}s",
          file=out)
    print("  " + ", ".join(f"{n} {o}" for o, n in outcomes.items() if n)
          + f"; pass rate {report['pass_rate'] * 100:.1f}%"
          + f"; {report['unexpected']} unexpected", file=out)
    for payload in report["cells"]:
        if failures_only and payload["ok"]:
            continue
        _print_cell_line(payload, out)


def cmd_matrix(args, out=sys.stdout) -> int:
    """Run or summarize a scenario-matrix chaos campaign."""
    from repro.matrix import MatrixSpec, bench_headline, run_matrix

    if args.matrix_command == "report":
        report = json.loads(args.report.read_text())
        _print_report(report, out, failures_only=args.failures_only)
        return 0 if report["unexpected"] == 0 else 1

    spec = MatrixSpec.from_file(args.matrix)
    report = run_matrix(
        spec, workers=args.workers, shrink=not args.no_shrink,
        cell_filter=args.cell, max_shrink_cells=args.max_shrink,
        shrink_budget=args.shrink_budget,
        log=lambda msg: print(msg, file=out))
    if args.output is not None:
        for payload in report["cells"]:
            shrunk = payload.get("shrunk")
            if not shrunk:
                continue
            repro_path = args.output.with_name(
                f"{args.output.stem}.repro-{payload['index']}.toml")
            repro_path.write_text(shrunk["matrix_toml"])
            shrunk["command"] = (
                f"python -m repro matrix run --matrix {repro_path}")
            print(f"shrunk repro for {payload['cell_id']} -> {repro_path}",
                  file=out)
        args.output.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"report written to {args.output}", file=out)
    if args.bench is not None:
        args.bench.write_text(
            json.dumps(bench_headline(report), indent=2, sort_keys=True))
        print(f"bench headline written to {args.bench}", file=out)
    _print_report(report, out, failures_only=True)
    return 0 if report["unexpected"] == 0 else 1


COMMANDS = {
    "specs": cmd_specs,
    "learn": cmd_learn,
    "monitor": cmd_monitor,
    "serve": cmd_serve,
    "subscribe": cmd_subscribe,
    "relay": cmd_relay,
    "replay": cmd_replay,
    "matrix": cmd_matrix,
}


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, out=out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
