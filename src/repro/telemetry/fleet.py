"""Fleet aggregation: merging telemetry streams from many machines.

A :class:`FleetAggregator` subscribes to several telemetry servers —
each fronting its own simulated machine — and merges their report
streams into one host-labelled, cluster-level power series.  The merge
is tolerant by construction:

* **out-of-order reports** are inserted at the right timestamp
  (per-host series stay time-sorted regardless of arrival order),
* **gap-marked reports** contribute no power but keep the period
  visible, so a cluster total is never silently computed from a host
  that explicitly said "no data",
* **missing hosts** (nothing received for a timestamp) mark the
  cluster point incomplete rather than under-reporting it as a total.

Streams can come from live sockets (:meth:`FleetAggregator.add_host`)
or be fed directly (:meth:`FleetAggregator.ingest`) for deterministic
tests and offline merges.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.messages import AggregatedPowerReport
from repro.errors import ConfigurationError
from repro.telemetry.client import ReconnectPolicy, TelemetryClient
from repro.telemetry.wire import ReportEvent


@dataclass(frozen=True)
class FleetSample:
    """One host's aggregated report, as merged into the fleet view."""

    host: str
    time_s: float
    period_s: float
    total_w: float
    gap: bool = False


@dataclass(frozen=True)
class ClusterPoint:
    """The fleet's power at one aligned timestamp."""

    time_s: float
    #: Sum of ``total_w`` over hosts with real data at this timestamp.
    total_w: float
    #: host -> watts for the contributing hosts.
    by_host: Dict[str, float] = field(default_factory=dict)
    #: Hosts that explicitly reported a gap for this timestamp.
    gap_hosts: Tuple[str, ...] = ()
    #: True when every registered host contributed real data.
    complete: bool = False


class _HostStream:
    """Time-sorted samples from one host (inserts keep order)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: List[float] = []
        self.samples: List[FleetSample] = []
        self.out_of_order = 0
        #: Stream sequence numbers already merged (replay dedup).
        self.seen_seqs: set = set()
        self.duplicates = 0
        self.client: Optional[TelemetryClient] = None
        self.thread: Optional[threading.Thread] = None

    def insert(self, sample: FleetSample) -> None:
        index = bisect.bisect_right(self._times, sample.time_s)
        if index != len(self._times):
            self.out_of_order += 1
        self._times.insert(index, sample.time_s)
        self.samples.insert(index, sample)


class FleetAggregator:
    """Merges per-host telemetry streams into cluster-level series."""

    def __init__(self, align_decimals: int = 6) -> None:
        #: Timestamps are aligned across hosts after rounding to this
        #: many decimals, absorbing float jitter between machines.
        self.align_decimals = align_decimals
        self._streams: Dict[str, _HostStream] = {}
        self._cond = threading.Condition()
        self.samples_ingested = 0

    # -- wiring hosts -------------------------------------------------

    def hosts(self) -> Tuple[str, ...]:
        """Registered host names, in registration order."""
        with self._cond:
            return tuple(self._streams)

    def register_host(self, name: str) -> None:
        """Declare a host that will be fed via :meth:`ingest`."""
        with self._cond:
            if name in self._streams:
                raise ConfigurationError(f"host {name!r} already registered")
            self._streams[name] = _HostStream(name)

    def add_host(self, name: str, host: str, port: int,
                 reconnect: Optional[ReconnectPolicy] = None,
                 **client_kwargs) -> TelemetryClient:
        """Subscribe to one server; a daemon thread drains its stream."""
        self.register_host(name)
        client = TelemetryClient(host, port, kinds=("report",),
                                 reconnect=reconnect,
                                 agent=f"repro-fleet/{name}",
                                 **client_kwargs)
        stream = self._streams[name]
        stream.client = client
        stream.thread = threading.Thread(
            target=self._drain, args=(name, client),
            name=f"fleet-{name}", daemon=True)
        stream.thread.start()
        return client

    def _drain(self, name: str, client: TelemetryClient,
               host_of: Optional[Callable[[str], str]] = None) -> None:
        """Merge *client*'s reports: each goes under *name*, or under
        ``host_of(origin)`` when given, *origin* being its host label."""
        try:
            for event in client:
                if isinstance(event, ReportEvent):
                    # identity() prefers the origin (seq, epoch) stamped
                    # by a relay hop, so dedup survives trees in which
                    # hop-local seqs restart mid-chain.
                    origin, epoch, seq = event.identity()
                    host = name if host_of is None else host_of(origin)
                    self.ingest(host, event.report, seq=seq, epoch=epoch)
        except Exception:  # noqa: BLE001 - drain threads must not leak
            pass
        finally:
            with self._cond:
                self._cond.notify_all()

    def close(self) -> None:
        """Disconnect every live client and join the drain threads."""
        with self._cond:
            streams = list(self._streams.values())
        for stream in streams:
            if stream.client is not None:
                stream.client.close()
        for stream in streams:
            if stream.thread is not None:
                stream.thread.join(timeout=5.0)

    # -- ingestion ----------------------------------------------------

    def ingest(self, host: str, report: AggregatedPowerReport,
               seq: Optional[int] = None,
               epoch: Optional[str] = None) -> None:
        """Merge one report for *host* (thread-safe, any order).

        When *seq* is given, ``(host, seq)`` pairs already merged are
        dropped — a replayed frame after a reconnect never
        double-counts cluster watts.  *epoch* scopes the seq to one
        stream epoch: frames arriving through a relay carry their
        origin ``(epoch, seq)``, which stays unique end to end even
        when a mid-chain relay restart resets hop-local seqs.
        """
        with self._cond:
            stream = self._streams.get(host)
            if stream is None:
                stream = _HostStream(host)
                self._streams[host] = stream
            if seq is not None:
                key = seq if epoch is None else (epoch, seq)
                if key in stream.seen_seqs:
                    stream.duplicates += 1
                    return
                stream.seen_seqs.add(key)
            stream.insert(FleetSample(
                host=host,
                time_s=round(report.time_s, self.align_decimals),
                period_s=report.period_s,
                total_w=0.0 if report.gap else report.total_w,
                gap=report.gap))
            self.samples_ingested += 1
            self._cond.notify_all()

    def wait_for_samples(self, count: int, timeout: float = 5.0) -> bool:
        """Condition-based wait until *count* samples were ingested."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self.samples_ingested >= count, timeout=timeout)

    def wait_for(self, predicate: Callable[[], bool],
                 timeout: float = 5.0) -> bool:
        """Wait until *predicate()* holds (evaluated under the lock)."""
        with self._cond:
            return self._cond.wait_for(predicate, timeout=timeout)

    # -- merged views -------------------------------------------------

    def host_series(self, host: str) -> List[FleetSample]:
        """One host's samples, time-sorted regardless of arrival order."""
        with self._cond:
            stream = self._streams.get(host)
            return [] if stream is None else list(stream.samples)

    def out_of_order_count(self) -> int:
        """Samples that arrived behind a later timestamp, fleet-wide."""
        with self._cond:
            return sum(s.out_of_order for s in self._streams.values())

    def duplicate_count(self) -> int:
        """Replayed ``(host, seq)`` samples dropped, fleet-wide."""
        with self._cond:
            return sum(s.duplicates for s in self._streams.values())

    def cluster_series(self) -> List[ClusterPoint]:
        """The merged fleet power series, one point per timestamp.

        A point's ``total_w`` sums every host that delivered real data
        there; hosts that sent a gap-marked report are listed in
        ``gap_hosts``; ``complete`` requires all registered hosts to
        have contributed real data.
        """
        with self._cond:
            return self._series_for(tuple(self._streams))

    def _series_for(self, hosts: Tuple[str, ...]) -> List[ClusterPoint]:
        """Merged series over a host subset.  Caller holds ``_cond``."""
        merged: Dict[float, Dict[str, FleetSample]] = {}
        for name in hosts:
            stream = self._streams.get(name)
            if stream is None:
                continue
            for sample in stream.samples:
                # Latest report wins for a duplicated timestamp
                # (a resent frame after reconnect).
                merged.setdefault(sample.time_s, {})[stream.name] = sample
        points = []
        for time_s in sorted(merged):
            at = merged[time_s]
            by_host = {name: sample.total_w for name, sample in at.items()
                       if not sample.gap}
            gap_hosts = tuple(sorted(name for name, sample in at.items()
                                     if sample.gap))
            points.append(ClusterPoint(
                time_s=time_s,
                total_w=sum(by_host.values()),
                by_host=by_host,
                gap_hosts=gap_hosts,
                complete=len(by_host) == len(hosts),
            ))
        return points

    def cluster_energy_j(self) -> float:
        """Fleet energy: sum of ``total_w * period_s`` over real samples."""
        with self._cond:
            return sum(sample.total_w * sample.period_s
                       for stream in self._streams.values()
                       for sample in stream.samples if not sample.gap)


class HierarchicalFleetAggregator(FleetAggregator):
    """Host → cluster → global rollup over relayed telemetry streams.

    One **uplink** connection — typically to a
    :class:`~repro.telemetry.relay.TelemetryRelay` aggregating a whole
    cluster — carries reports from many origin hosts; this aggregator
    demultiplexes them by the ``host`` label each frame kept end to
    end, assigns every origin host to the uplink's cluster, and dedups
    on the relayed origin ``(epoch, seq)`` identity.  The inherited
    views stay global (:meth:`cluster_series` spans every host);
    :meth:`cluster_rollup` and :meth:`cluster_energy_by_cluster` slice
    the same data per cluster.
    """

    def __init__(self, align_decimals: int = 6) -> None:
        super().__init__(align_decimals=align_decimals)
        #: host -> cluster name.
        self._cluster_of: Dict[str, str] = {}
        self._uplinks: List[Tuple[TelemetryClient, threading.Thread]] = []

    # -- wiring -------------------------------------------------------

    def assign_cluster(self, host: str, cluster: str) -> None:
        """Place *host* in *cluster* (hosts default to ``""``)."""
        with self._cond:
            self._cluster_of[host] = cluster

    def cluster_of(self, host: str) -> str:
        with self._cond:
            return self._cluster_of.get(host, "")

    def clusters(self) -> Tuple[str, ...]:
        """Known cluster names, sorted."""
        with self._cond:
            return tuple(sorted(set(self._cluster_of.values())))

    def add_uplink(self, cluster: str, host: str, port: int,
                   reconnect: Optional[ReconnectPolicy] = None,
                   **client_kwargs) -> TelemetryClient:
        """Subscribe to one relay/server; a daemon thread demuxes its
        stream into per-origin-host series under *cluster*."""
        client = TelemetryClient(host, port, kinds=("report",),
                                 reconnect=reconnect,
                                 agent=f"repro-fleet/{cluster}",
                                 **client_kwargs)

        def claim(origin: str) -> str:
            # An unlabelled report stands for the cluster itself.
            name = origin or cluster
            with self._cond:
                self._cluster_of.setdefault(name, cluster)
            return name

        thread = threading.Thread(
            target=self._drain, args=(cluster, client, claim),
            name=f"fleet-uplink-{cluster}", daemon=True)
        with self._cond:
            self._uplinks.append((client, thread))
        thread.start()
        return client

    def close(self) -> None:
        """Disconnect uplinks and per-host clients; join all drains."""
        with self._cond:
            uplinks = list(self._uplinks)
        for client, _thread in uplinks:
            client.close()
        for _client, thread in uplinks:
            thread.join(timeout=5.0)
        super().close()

    # -- rollups ------------------------------------------------------

    def hosts_in(self, cluster: str) -> Tuple[str, ...]:
        """Registered hosts assigned to *cluster*, in merge order."""
        with self._cond:
            return tuple(name for name in self._streams
                         if self._cluster_of.get(name, "") == cluster)

    def cluster_rollup(self) -> Dict[str, List[ClusterPoint]]:
        """Per-cluster merged series: cluster name -> its points.

        ``complete`` on a rolled-up point means every host *of that
        cluster* contributed real data at the timestamp.
        """
        with self._cond:
            members: Dict[str, List[str]] = {}
            for name in self._streams:
                members.setdefault(
                    self._cluster_of.get(name, ""), []).append(name)
            return {cluster: self._series_for(tuple(hosts))
                    for cluster, hosts in sorted(members.items())}

    def global_series(self) -> List[ClusterPoint]:
        """The all-clusters series (alias of :meth:`cluster_series`)."""
        return self.cluster_series()

    def cluster_energy_by_cluster(self) -> Dict[str, float]:
        """Energy (J) per cluster over real (non-gap) samples."""
        with self._cond:
            totals: Dict[str, float] = {}
            for name, stream in self._streams.items():
                cluster = self._cluster_of.get(name, "")
                totals[cluster] = totals.get(cluster, 0.0) + sum(
                    sample.total_w * sample.period_s
                    for sample in stream.samples if not sample.gap)
            return totals
