#!/usr/bin/env python
"""Watch the coherence protocol work: message-sequence charts.

    python examples/protocol_trace.py

Renders the actual message interleavings for the paper's Figure 1 cases:
(a) one producer→consumer iteration through the default invalidation
protocol — the 8-message chain; (b) the same transfer under explicit
compiler control — one tagged data message; and, for contrast, (c) the
write-update protocol's push.
"""

from repro.obs import MessageTracer
from repro.tempest import Cluster, ClusterConfig, Distribution, HomePolicy, SharedMemory
from repro.tempest.stats import MsgKind

KINDS = {
    MsgKind.READ_REQ, MsgKind.READ_RESP, MsgKind.PUT_REQ, MsgKind.PUT_RESP,
    MsgKind.WRITE_REQ, MsgKind.INV, MsgKind.ACK, MsgKind.GRANT,
    MsgKind.DATA, MsgKind.UPDATE, MsgKind.UPDATE_ACK,
}


def make(protocol="invalidate"):
    cfg = ClusterConfig(n_nodes=3)
    mem = SharedMemory(cfg, home_policy=HomePolicy.NODE0)
    arr = mem.alloc("a", (16, 3), Distribution.block(3))
    cl = Cluster(cfg, mem, protocol=protocol)
    return cl, arr.block_of_element((0, 1))


def warmup_then_trace(cl, b, producer_body, consumer_body):
    """Run one warm-up iteration, then trace the steady-state one."""
    tracer = MessageTracer(cl.ensure_bus(), cl.n_nodes, kinds=KINDS)

    def producer():
        for phase in (1, 2):
            if phase == 2:
                cl.obs.flush()  # fold the warm-up before dropping it
                tracer.records.clear()
            yield from producer_body(phase)
            yield from cl.barrier(1)
            yield from cl.barrier(1)

    def consumer():
        for phase in (1, 2):
            yield from cl.barrier(2)
            yield from consumer_body(phase)
            yield from cl.barrier(2)

    def home():
        for _ in (1, 2):
            yield from cl.barrier(0)
            yield from cl.barrier(0)

    cl.run({0: home(), 1: producer(), 2: consumer()})
    return tracer


def default_protocol():
    cl, b = make()
    tracer = warmup_then_trace(
        cl, b,
        lambda phase: cl.write_blocks(1, [b], phase=phase),
        lambda phase: cl.read_blocks(2, [b], phase=phase),
    )
    print("=== (a) default invalidation protocol, steady-state iteration ===")
    print("    (node 0 = home, node 1 = producer, node 2 = consumer)\n")
    print(tracer.sequence_chart())
    print(f"\n{tracer.summary()}\n")


def compiler_controlled():
    cl, b = make()
    tracer = MessageTracer(cl.ensure_bus(), cl.n_nodes, kinds=KINDS)

    def producer():
        yield from cl.ext.mk_writable(1, [b])
        yield from cl.barrier(1)
        cl.obs.flush()  # fold the warm-up before dropping it
        tracer.records.clear()  # trace the steady state only
        yield from cl.write_blocks(1, [b], phase=1)
        yield from cl.ext.send_blocks(1, [b], 2)
        yield from cl.barrier(1)

    def consumer():
        yield from cl.ext.implicit_writable(2, [b])
        yield from cl.barrier(2)
        yield from cl.ext.ready_to_recv(2, 1)
        yield from cl.read_blocks(2, [b], phase=1)
        yield from cl.barrier(2)

    def home():
        yield from cl.barrier(0)
        yield from cl.barrier(0)

    cl.run({0: home(), 1: producer(), 2: consumer()})
    print("=== (b) compiler-directed transfer, steady-state iteration ===\n")
    print(tracer.sequence_chart())
    print(f"\n{tracer.summary()}\n")


def update_protocol():
    cl, b = make(protocol="update")
    tracer = warmup_then_trace(
        cl, b,
        lambda phase: cl.write_blocks(1, [b], phase=phase),
        lambda phase: cl.read_blocks(2, [b], phase=phase),
    )
    print("=== (c) write-update protocol, steady-state iteration ===\n")
    print(tracer.sequence_chart())
    print(f"\n{tracer.summary()}")


if __name__ == "__main__":
    default_protocol()
    compiler_controlled()
    update_protocol()
