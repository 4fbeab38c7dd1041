"""Structured observability for the simulated cluster.

The simulator's components (engine, coherence protocol, reliable
transport, combining buffers, switch ports, barriers) publish typed
span/instant events to one :class:`~repro.obs.bus.EventBus`; everything
else in this package is a *subscriber*:

* :class:`~repro.obs.chrome.ChromeTraceExporter` — Chrome trace-event
  JSON (one track per node plus transport/switch tracks), loadable in
  Perfetto or ``chrome://tracing``;
* :class:`~repro.obs.profile.Timeline` — the one time-attribution
  recorder: per node a gap-free ledger of op spans (a crash outage is a
  span too) plus, on request, the causal ``parent`` lineage every
  publisher threads through its events.  Two pure functions fold it:
  :func:`~repro.obs.profile.phase_breakdown` attributes each node's
  time to compute / read-miss / write-miss / barrier-wait /
  protocol-overhead / transport-recovery / recovery buckets per
  parallel phase (the paper's Figure 4 decomposition), and
  :func:`~repro.obs.critical.critical_path` extracts the run's exact
  critical path, decomposed into compute / wire / port-queue /
  protocol / transport-recovery / barrier-slack, with what-if bounds
  per cost class;
* :class:`~repro.obs.metrics.MetricsRegistry` — re-derives the
  ``NodeStats``/``ClusterStats`` counters from bus events, so traces
  and counters can never silently disagree;
* :class:`~repro.obs.tracing.MessageTracer` — records ``msg.send``
  events and renders message-sequence charts and traffic summaries;
* :mod:`repro.obs.schema` — a dependency-free validator for the
  exported trace JSON (``python -m repro.obs.schema trace.json``).

The bus never schedules engine events and subscribers never touch
simulation state, so attaching any combination of them cannot perturb a
run: schedules, stats and numerics stay byte-identical.  With no bus
attached (the default) not a single event object is constructed.

See ``docs/observability.md`` for the event taxonomy.
"""

from repro.obs.bus import Event, EventBus
from repro.obs.chrome import ChromeTraceExporter
from repro.obs.critical import COST_CLASSES, critical_path, render_critical_path
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    BUCKETS,
    Timeline,
    breakdown_totals,
    phase_breakdown,
    render_breakdown,
)
from repro.obs.schema import validate_chrome_trace
from repro.obs.tracing import MessageRecord, MessageTracer

__all__ = [
    "BUCKETS",
    "COST_CLASSES",
    "ChromeTraceExporter",
    "Event",
    "EventBus",
    "MessageRecord",
    "MessageTracer",
    "MetricsRegistry",
    "Timeline",
    "breakdown_totals",
    "critical_path",
    "phase_breakdown",
    "render_breakdown",
    "render_critical_path",
    "validate_chrome_trace",
]
