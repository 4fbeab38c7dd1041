"""Property test: `repro.sim.Engine` dispatches every schedule exactly as its
oracle, the seed's one binary heap (``tests/heap_engine.py``), does.

A generated script has root events at a few instants chosen to collide;
each callback logs ``(label, now)`` and schedules up to three children
through every scheduling call, with delays drawn so that ties, chains at
``now`` and same-instant hops all occur.  Processes yield delays, futures
and ``Resource.use``.  The script is run in segments: ``max_events`` stops
at drawn points, one callback that raises, and a further schedule between
segments, each followed by another ``run()``.  Both engines must leave the
same log, clock, event count and queue high-water mark after every
segment.

CI runs this with a much larger budget:
``pytest tests/sim/test_engine_oracle.py --hypothesis-profile engine-oracle``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Resource, SimulationError
from tests.heap_engine import HeapEngine

#: callbacks a script may schedule in all, so every script terminates
BUDGET = 60
HOW = ("at", "now", "chain", "after")
#: delays: 0 makes ties at ``now`` (and chains at ``now``), the rest collide
DELAYS = (0, 0, 1, 3, 3, 50)

actions = st.lists(st.tuples(st.sampled_from(HOW), st.sampled_from(DELAYS)),
                   max_size=3)
commands = st.one_of(
    st.tuples(st.just("delay"), st.sampled_from((0, 2, 3))),
    st.tuples(st.just("wait"), st.integers(0, 1)),
    st.tuples(st.just("use"), st.sampled_from((0, 2, 5))),
)
scripts = st.fixed_dictionaries({
    "roots": st.lists(
        st.tuples(st.sampled_from(("at", "chain")),
                  st.sampled_from((0, 0, 3, 7, 7, 20, 1000))),
        min_size=1, max_size=8),
    "fanout": st.lists(actions, min_size=1, max_size=6),
    "procs": st.lists(st.lists(commands, max_size=5), max_size=3),
    #: per future, the instant a root event resolves it (None: never)
    "resolves": st.lists(st.one_of(st.none(), st.sampled_from((0, 3, 7, 30))),
                         min_size=2, max_size=2),
    "boom": st.one_of(st.none(), st.integers(0, BUDGET - 1)),
    "stops": st.lists(st.integers(1, 40), max_size=3),
    "between": actions,
})


class Boom(Exception):
    pass


class Driver:
    """One script on one engine class; ``trail`` holds every segment's
    outcome and the engine state it left."""

    def __init__(self, engine_cls, script):
        self.eng = eng = engine_cls()
        self.script = script
        self.log = []
        self.n = 0  # labels, taken in schedule order
        self.cpu = Resource(eng)
        self.futures = [eng.future(f"f{k}") for k in range(2)]
        for how, t in script["roots"]:
            self.schedule(how, t)
        for k, t in enumerate(script["resolves"]):
            if t is not None:
                eng.call_at(t, self.resolve, k)
        for i, cmds in enumerate(script["procs"]):
            eng.spawn(self.process(i, cmds))

    def schedule(self, how, d):
        if self.n >= BUDGET:
            return
        label, self.n = self.n, self.n + 1
        eng = self.eng
        if how == "at":
            eng.call_at(eng.now + d, self.fire, label)
        elif how == "now":
            eng.call_now(self.fire, label)
        elif how == "chain":
            eng.call_chain(eng.now + d, self.fire, label)
        else:
            eng.call_after(d, self.fire, label)

    def fire(self, label):
        self.log.append((label, self.eng.now))
        if label == self.script["boom"]:
            raise Boom(label)
        fanout = self.script["fanout"]
        for how, d in fanout[label % len(fanout)]:
            self.schedule(how, d)

    def resolve(self, k):
        self.log.append((f"resolve{k}", self.eng.now))
        self.futures[k].resolve(k)

    def process(self, i, cmds):
        for step, (op, arg) in enumerate(cmds):
            if op == "delay":
                got = yield arg
            elif op == "wait":
                got = yield self.futures[arg]
            else:
                got = yield self.cpu.use(arg)
            self.log.append((f"p{i}.{step}", self.eng.now, got))

    def drive(self):
        trail = []
        segments = [*self.script["stops"], None, None]
        for m in segments:
            try:
                self.eng.run(max_events=m)
                outcome = "ok"
            except (SimulationError, Boom) as e:
                outcome = type(e).__name__
            eng = self.eng
            trail.append((outcome, eng.now, eng.events_dispatched,
                           eng.max_queue_depth, len(self.log)))
            for how, d in self.script["between"]:
                self.schedule(how, d)
        return trail


@settings(deadline=None)
@given(scripts)
def test_engine_equals_heap_oracle(script):
    native, oracle = Driver(Engine, script), Driver(HeapEngine, script)
    assert native.drive() == oracle.drive()
    assert native.log == oracle.log
