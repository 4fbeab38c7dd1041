"""The rules across config fields, read from their rows (``repro.spec``).

For each row of ``FaultConfig.RULES`` and ``RunRequest.RULES`` this finds
a setting that breaks it, a companion beside which that setting builds,
and the ``repro APP`` command line that spells a setting — by trying the
field specs' sample values against the constructors, so no rule is
spelled here.  :func:`valid_requests` is a hypothesis strategy drawing
requests from the declared bounds that every row keeps.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import typing

from hypothesis import strategies as st

from repro import spec
from repro.apps import APPS
from repro.serve.request import RunRequest
from repro.tempest.config import US
from repro.tempest.faults import (
    CrashScenario,
    FaultConfig,
    LinkFaultConfig,
    PartitionScenario,
)

#: every row, with the class that declares it
ROWS = [(FaultConfig, row) for row in FaultConfig.RULES] + [
    (RunRequest, row) for row in RunRequest.RULES
]
#: one entry of each scenario field, and the ``repro APP`` argv that sets it
SCENARIOS = {
    "crashes": ((CrashScenario(1, 1000 * US),), ["--fault-crash", "1:1000"]),
    "link_faults": ((LinkFaultConfig(0, 1, drop_prob=0.25),),
                    ["--fault-link", "0:1:drop=0.25"]),
    "partitions": ((PartitionScenario("cli-partition-0", {1}, 100 * US, 200 * US),),
                   ["--fault-partition", "1:100:200"]),
}
#: the ``RunRequest`` fields ``repro APP`` sets through a flag of its own
#: spelling, and that flag
BY_HAND = {"optimize": "--no-opt", "bulk": "--no-bulk", "advisory": "--advisory"}
_BASE = {FaultConfig: FaultConfig(), RunRequest: RunRequest(app="jacobi")}


def row_id(row) -> str:
    return ",".join(row[0])


def sample(f: dataclasses.Field):
    """A legal non-default value of ``f`` in flag/axis units."""
    kind = spec.kind(f)
    if f.metadata["choices"]:
        return next(c for c in f.metadata["choices"] if c != f.default)
    if kind is bool:
        return not f.default
    if kind is int:
        return (f.default or 0) + 3
    if f.metadata["unit"] != 1:  # above the default: a ceiling stays above its floor
        return (spec.to_flag(f, f.default) or 0) + 7.5
    return 0.25


def _values(f: dataclasses.Field) -> list:
    """Stored values of ``f`` to try: each non-default choice, or a legal
    non-default value and the lowest legal one."""
    m = f.metadata
    if m["choices"]:
        values = list(m["choices"])
    else:
        values = [spec.to_field(f, sample(f))]
        if m["gt"] is not None:
            values.append(m["gt"] + 1)
        elif m["ge"] is not None:
            values.append(m["ge"])
    return [v for i, v in enumerate(values) if v != f.default and v not in values[:i]]


def candidates(owner) -> list[tuple[str, object]]:
    """``(field, value)`` settings of ``owner`` to try."""
    out = []
    for f in dataclasses.fields(owner):
        if "unit" in f.metadata:
            out += [(f.name, v) for v in _values(f)]
        elif f.name in SCENARIOS:
            out.append((f.name, SCENARIOS[f.name][0]))
    return out


def refusal(owner, setting: dict) -> spec.OptionError | None:
    """What ``owner`` raises for ``setting`` (None: it builds)."""
    try:
        dataclasses.replace(_BASE[owner], **setting)
    except spec.OptionError as e:
        return e
    return None


def message(owner, row, setting: dict) -> str:
    """``row``'s refusal message for ``setting``."""
    obj = copy.copy(_BASE[owner])
    for name, value in setting.items():
        object.__setattr__(obj, name, value)
    return row[2].format(obj)


def _settings(pool, size: int):
    for combo in itertools.combinations(pool, size):
        if len({name for name, _ in combo}) == size:
            yield dict(combo)


def breaking(owner, row) -> dict:
    """The smallest setting (at most two fields) ``owner`` refuses by
    ``row``: one ``repro APP`` can spell, if there is one."""
    for size in (1, 2):
        found = [s for s in _settings(candidates(owner), size)
                 if (e := refusal(owner, s)) and e.why == message(owner, row, s)]
        if found:
            return next((s for s in found if argv(owner, s) is not None), found[0])
    raise AssertionError(f"no setting breaks row {row_id(row)}")


def keeping(owner, setting: dict) -> dict | None:
    """The smallest companion (at most two other fields) beside which
    ``setting`` builds, or None."""
    pool = [c for c in candidates(owner) if c[0] not in setting]
    for size in (1, 2):
        for companion in _settings(pool, size):
            if refusal(owner, {**setting, **companion}) is None:
                return companion
    return None


def flag(owner, name: str) -> str | None:
    """The ``repro APP`` flag that sets ``owner``'s field ``name`` (a
    dotted path below it), or None."""
    *path, leaf = name.split(".")
    cls = owner
    for step in path:
        cls = typing.get_type_hints(cls)[step]
    f = cls.__dataclass_fields__[leaf]
    if f.metadata.get("flag"):
        return f.metadata["flag"]
    if leaf in SCENARIOS:
        return SCENARIOS[leaf][1][0]
    return BY_HAND.get(leaf) if cls is RunRequest else None


def argv(owner, setting: dict) -> list[str] | None:
    """The ``repro APP`` flags that give ``setting`` (None: it has no
    spelling there).  ``repro APP`` optimizes a shmem run unless told
    ``--no-opt``, and runs msgpass unoptimized."""
    out = []
    if owner is RunRequest:
        setting = {"optimize": False, **setting}
        backend = setting.pop("backend", "shmem")
        if backend not in ("shmem", "msgpass") or (backend == "msgpass" and setting["optimize"]):
            return None
        if backend == "msgpass":
            out += ["--backend", "msgpass"]
            setting.pop("optimize")
    for name, value in setting.items():
        f = owner.__dataclass_fields__[name]
        if name in SCENARIOS:
            out += SCENARIOS[name][1]
        elif f.metadata.get("flag"):
            out += flag_argv(f, spec.to_flag(f, value))
        elif owner is RunRequest and name == "optimize":
            out += [] if value else ["--no-opt"]
        elif owner is RunRequest and name == "bulk":
            out += ["--no-bulk"]
        elif owner is RunRequest and name == "advisory":
            out += ["--advisory", value]
        else:
            return None
    return out


def flag_argv(f, value) -> list[str]:
    """The ``repro APP`` argv that sets ``f`` to ``value`` (flag units)."""
    spelled = f.metadata["flag"].replace("[no-]", "")
    if spec.kind(f) is not bool:
        return [spelled, str(value)]
    return [spelled if value else spelled.replace("--", "--no-", 1)]


# --------------------------------------------------------------------- #
def _stored(f: dataclasses.Field):
    """A strategy over ``f``'s stored values inside its declared bounds,
    its default among them."""
    m = f.metadata
    kind = f.type.split(" | ")[0]
    if m["choices"]:
        values = st.sampled_from(m["choices"])
    elif kind == "bool":
        values = st.booleans()
    elif kind == "float":
        lo = m["ge"] if m["ge"] is not None else m["gt"] or 0.0
        values = st.floats(lo, m["lt"] if m["lt"] is not None else lo + 1e3,
                           exclude_min=m["gt"] is not None, exclude_max=m["lt"] is not None)
    else:
        lo = m["ge"] if m["ge"] is not None else (m["gt"] + 1 if m["gt"] is not None else 0)
        values = st.integers(lo, lo + 10 ** 7)
    return st.one_of(st.just(f.default), values)


def _scenarios(draw, n_nodes: int) -> dict:
    """Up to two entries of each scenario field, naming nodes of the
    cluster."""
    node = st.integers(0, n_nodes - 1)
    ns = st.integers(0, 10 ** 7)
    crashes = st.builds(CrashScenario, node, ns, st.none() | ns)
    partitions = st.builds(
        lambda nodes, i, t, d: PartitionScenario(f"p{i}", nodes, t, d),
        st.frozensets(node, min_size=1), st.integers(0, 3), ns,
        st.none() | st.integers(1, 10 ** 7),
    )
    out = {"crashes": draw(st.lists(crashes, max_size=2)),
           "partitions": draw(st.lists(partitions, max_size=2))}
    if n_nodes > 1:
        link = st.tuples(node, node).filter(lambda k: k[0] != k[1])
        out["link_faults"] = [
            LinkFaultConfig(src, dst, drop_prob=p)
            for (src, dst), p in draw(st.lists(st.tuples(link, st.floats(0, 0.5)), max_size=2))
        ]
    return out


def _reset(obj, path: str):
    """``obj`` with the dotted ``path`` back at its default."""
    head, _, rest = path.partition(".")
    f = obj.__dataclass_fields__[head]
    default = f.default_factory() if f.default is dataclasses.MISSING else f.default
    return dataclasses.replace(obj, **{head: _reset(getattr(obj, head), rest) if rest else default})


def _build(cls, kwargs: dict):
    """``cls(**kwargs)``, every field a refusal names put back at its
    default until none is refused (each refusal names a field off its
    default, so each round resets one)."""
    for _ in range(64):
        try:
            return cls(**kwargs)
        except spec.OptionError as e:
            for name in e.fields:
                head, _, rest = name.partition(".")
                if rest:
                    kwargs[head] = _reset(kwargs[head], rest)
                else:
                    kwargs.pop(head, None)
    raise AssertionError(f"{cls.__name__}: refusals never stopped for {kwargs}")


@st.composite
def valid_requests(draw) -> RunRequest:
    """A registry ``RunRequest`` whose every declared field is drawn from
    its bounds (often its default), with fault scenarios naming nodes of
    its cluster.  A draw some row refuses has the fields the refusal
    names put back at their defaults, so no draw is rejected."""
    drawn: dict[tuple, dict] = {}
    for path, f in spec.walk(RunRequest):
        drawn.setdefault(path, {})[f.name] = draw(_stored(f))
    drawn[("config", "faults")].update(_scenarios(draw, drawn[("config",)]["n_nodes"]))
    drawn[()].update(app=draw(st.sampled_from(sorted(APPS))))
    built: dict[tuple, object] = {}
    for path in sorted(drawn, key=len, reverse=True):
        cls = RunRequest
        for step in path:
            cls = typing.get_type_hints(cls)[step]
        kwargs = dict(drawn[path])
        kwargs.update({p[-1]: obj for p, obj in built.items() if p[:-1] == path})
        built[path] = _build(cls, kwargs)
    return built[()]
