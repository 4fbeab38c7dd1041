"""Which ``src/`` functions an entry point reaches: the record behind
deleting code that none does.

    PYTHONPATH=src:. python -m tests.reach_table

drives the entry points in this process under a ``sys.settrace`` call
recorder (Python 3.11 has no ``sys.monitoring``; coverage.py is not a
dependency): the CLI over all six apps and every flag family, ``repro
sweep`` (``--jobs 1``) and ``repro diff``, ``repro.report``,
``repro.obs.schema``, the seven examples, the hostbench workloads at smoke
size, and the three benches whose paths no default-scale run takes.  A
function whose own name is loaded or called in a ``benchmarks/`` or
``examples/`` file counts as reached by that static caller
(:func:`loaded_names`): CI runs every bench, this recorder three.  It
lists every function defined under ``src/`` that neither reached and
exits 1 unless ``KEEP`` — the decision record — names it with a reason.

It also runs three static passes.  :func:`write_only_state`: every
attribute stored under ``src/`` must be loaded somewhere under ``src/``,
or be named in ``WRITE_ONLY_KEEP`` with a reason.
:func:`single_valued_keywords`: every defaulted keyword of a public
``src/`` callable must take some other value at a call site in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/``, or be named in
``KEYWORD_KEEP`` with a reason.  :func:`checkpoint_cut`: every attribute
of a class with a ``restore`` that code changes after construction must
be read by the class's ``snapshot`` or ``restore``, or be named in
``CUT_KEEP`` with a reason.  Tier-1 ``tests/test_reach_table.py`` runs
the three passes on their own (they need no entry point driven).
"""

from __future__ import annotations

import ast
import builtins
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import threading
from functools import cache, partial

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the ``repro`` package this process imports: ``src/repro``, or the
#: mutated copy ``tests.mutation_smoke`` puts first on the path
SRC = os.path.dirname(importlib.util.find_spec("repro").origin)

#: reason -> "module: qualname ..." lines; a class name keeps its methods
KEPT_FOR = {
    "input-language surface: the grammar, the DSL vocabulary, the Lin/Expr operators": """
        repro.core.symbolic: Lin Sym
        repro.hpf.ast: Expr Un.__post_init__ SeqLoop.sym
        repro.hpf.dsl: ABS sqrt ArrayHandle ProgramBuilder.call ProgramBuilder.scalar_decl
        repro.hpf.dsl: ProgramBuilder.subroutine
        repro.hpf.parser: _ProgramParser.parse_assign _ProgramParser.parse_scalar_decl
        repro.hpf.parser: _ExprParser.error
        repro.tempest.memory: Distribution.replicated""",
    "safety code: runs only on bad input, a damaged store or a broken invariant": """
        repro.serve.store: ResultStore._quarantine ResultStore._corrupt
        repro.tempest.protocol_update: UpdateProtocol.write_block
        repro.tempest.directory: Directory.copy_is_current
        repro.hpf.parser: ParseError.__init__
        repro.hpf.eval: _located
        repro.tempest.audit: CoherenceAuditError.__init__
        repro.tempest.audit: _checks.<locals>.tag _checks.<locals>.stale""",
    "live path that no default-scale entry point triggers": """
        repro.tempest.extensions: CompilerExtensions.flush_and_invalidate
        repro.tempest.extensions: CompilerExtensions._on_flush
        repro.core.calls: FlushBlocks.trace
        repro.core.sections: coalesce_points StridedInterval.__contains__
        repro.core.sections: StridedInterval.__iter__
        repro.core.pre: AvailabilityTracker.drop
        repro.obs.profile: _overlap
        repro.report: render_bench_appendix _render_engine_artifact _render_serve_artifact""",
    "runs in pool worker processes, where this recorder does not": """
        repro.serve.runner: _pool_worker
        repro.serve.store: _fresh_lock""",
    "probe or oracle a pinned check reads": """
        repro.tempest.transport: ReliableTransport.rng ReliableTransport.in_flight
        repro.tempest.transport: ReliableTransport.armed_timers
        repro.tempest.stats: ClusterStats.summary ClusterStats.engine_summary
        repro.tempest.stats: ClusterStats.events_per_ms
        repro.runtime.results: RunResult.summary
        repro.obs.metrics: MetricsRegistry.assert_matches
        repro.serve.compare: assert_results_equal
        repro.serve.store: ResultStore.quarantined
        repro.tempest.memory: GlobalArray.owner_of_column""",
    "the test suite's shared fixture": "repro.tempest.config: small_config",
    "documented library API with no second spelling": """
        repro.serve.keys: fingerprint
        repro.serve.runner: ServeSession.run
        repro.obs.chrome: ChromeTraceExporter.to_chrome ChromeTraceExporter.to_json""",
    "repr/str for debuggers, REPLs and assertion messages": """
        repro.runtime.results: RunResult.checksums
        repro.core.sections: Section.__repr__ StridedInterval.__repr__
        repro.obs.tracing: MessageRecord.__str__
        repro.tempest.memory: GlobalArray.__repr__
        repro.tempest.node: Node.__repr__""",
    "query beside its live twins, so the object answers each of them": """
        repro.sim.engine: Future.value
        repro.sim.resource: PortedResource.free_at
        repro.tempest.directory: Directory.state_of""",
}


def _names(table: str):
    for line in table.strip().splitlines():
        module, _, qualnames = line.partition(":")
        yield from (f"{module.strip()}:{qualname}" for qualname in qualnames.split())


KEEP = {name: reason for reason, table in KEPT_FOR.items() for name in _names(table)}


def kept(name: str) -> bool:
    return any(name == k or name.startswith(k + ".") for k in KEEP)


def src_functions() -> dict[str, int]:
    """``module:qualname`` -> source lines, for every def under ``src/``."""
    out: dict[str, int] = {}

    def visit(node, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{module}:{prefix}{child.name}"
                out[name] = out.get(name, 0) + child.end_lineno - child.lineno + 1
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, module, prefix)

    for dirpath, _dirs, files in os.walk(SRC):
        for path in (os.path.join(dirpath, f) for f in files if f.endswith(".py")):
            with open(path, encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), _module(path), "")
    return out


@cache
def _module(path: str) -> str:
    rel = os.path.relpath(path, os.path.dirname(SRC))[: -len(".py")]
    return rel.replace(os.sep, ".").removesuffix(".__init__")


def drive(tmp: str) -> None:
    """Run every entry point once."""
    from repro import report
    from repro.cli import main
    from repro.obs import schema

    trace, store = os.path.join(tmp, "trace.json"), os.path.join(tmp, "store")
    faults = ["--fault-drop", "0.05", "--fault-dup", "0.02", "--fault-jitter", "10"]
    flag_families = [
        ["--backend", "msgpass", *faults], ["--single-cpu", "--no-bulk", "--rt-elim", "--pre"],
        ["--advisory", "full"], ["--advisory", "prefetch", "--switch"],
        ["--protocol", "update", "--no-opt"],
        ["--combine", "--switch", *faults],
        [*faults, "--fault-stall", "0.01", "--fault-stall-us", "5", "--rto-adaptive",
         "--rto-max-us", "4000", "--fault-link", "0:1:drop=0.1", "--audit"],
        ["--fault-partition", "1:200:300"], ["--fault-partition", "1:200:never"],
        ["--fault-crash", "2:300:100", "--checkpoint-every", "1", "--heartbeat-us", "100"],
        ["--fault-crash", "2:300"], ["--nodes", "0"], ["--param", "n=abc"],
        ["--no-opt", "--rt-elim"],
        ["--trace-out", trace, "--trace-kinds", "miss,barrier", "--profile-phases",
         "--whatif", "barrier", "--trace-messages", "read_req"],
    ]
    sweep = ["sweep", "jacobi", "cg", "--axis", "combine=off,on", "--cache-dir", store,
             "--jobs", "1", "--json", os.path.join(tmp, "sweep.json")]
    apps = ("cg", "grav", "jacobi", "lu", "pde", "shallow")
    cli = [[app, "--nodes", "4", *flags]
           for app in apps for flags in ([], ["--no-opt"], ["--pre"])]
    cli += [["jacobi", "--nodes", "4", *flags] for flags in flag_families]
    cli += [[*sweep, "--check-serial", "--quiet"], [*sweep, "--min-hit-rate", "0.9"],
            ["diff", "jacobi", "-", "combine=on", "--cache-dir", store],
            ["sweep", "jacobi", "--axis", "rt_elim=on"]]
    runs = [partial(main, argv) for argv in cli]
    runs += [partial(schema.main, [trace]),
             partial(report.main, ["--apps", "jacobi", "--nodes", "4", "--fault-drop", "0.05"])]
    examples = os.path.join(ROOT, "examples")
    runs += [partial(runpy.run_path, os.path.join(examples, name), run_name="__main__")
             for name in sorted(os.listdir(examples))]
    argv0 = sys.argv
    for run in runs:
        sys.argv = ["-", "jacobi", "--nodes", "4"]  # read by examples/app_suite.py only
        with contextlib.suppress(SystemExit):
            run()
    sys.argv = argv0
    sys.path.insert(0, os.path.join(ROOT, "benchmarks", "hostbench"))
    from workloads import PARAMS, WORKLOADS

    for name, workload in WORKLOADS.items():
        os.makedirs(os.path.join(tmp, name))
        w = workload(PARAMS["smoke"], 0, os.path.join(tmp, name))
        for step in (w.setup, w.body, w.warm, w.verify):
            step()
    # timed benchmark rounds suspend sys.settrace; disabled, they run once
    pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable", "--rootdir", ROOT,
                 *(os.path.join(ROOT, "benchmarks", f"bench_ablation_{b}.py")
                   for b in ("reduce", "partition", "recovery"))])


def reached_functions() -> set[str]:
    reached: set[str] = set()

    def on_call(frame, _event, _arg):
        code = frame.f_code
        if code.co_filename.startswith(SRC):
            reached.add(f"{_module(code.co_filename)}:{code.co_qualname}")

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        threading.settrace(on_call)
        sys.settrace(on_call)
        try:
            drive(tmp)
        finally:
            sys.settrace(None)
            threading.settrace(None)
    return reached


#: files whose loads count as static callers
STATIC_CALLERS = tuple(os.path.join(ROOT, d) for d in ("benchmarks", "examples"))


def loaded_names(roots=STATIC_CALLERS) -> set[str]:
    """Every name and attribute name loaded (so every one called) in a file
    under ``roots``, matched to ``src/`` functions by name alone, as the
    keyword pass matches calls."""
    names = set()
    for root in roots:
        for path in _py_files(root):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def own_name(function: str) -> str:
    """``module:Class.method`` -> ``method``."""
    return function.rpartition(":")[2].rpartition(".")[2]


# --------------------------------------------------------------------- #
# write-only state: a static pass over src/
# --------------------------------------------------------------------- #
#: reason -> "Owner.attr ..." lines (``Owner.*``: every field of Owner)
WRITE_ONLY_KEPT_FOR = {
    "counter read generically, through repro.tempest.stats.COUNTERS or StoreStats.as_dict":
        "NodeStats.* PortStats.* ClusterStats.* StoreStats.*",
    "exception payload for the code that catches it":
        "CoherenceAuditError.violations CoherenceAuditError.context ParseError.line_no",
    "numpy array flag: storing it is the effect": "flags.writeable",
    "strong reference: holding the record keeps its weak process-table entry alive":
        "PlanCache._held",
}
WRITE_ONLY_KEEP = {
    name: reason for reason, names in WRITE_ONLY_KEPT_FOR.items() for name in names.split()
}


def _store_target(node: ast.AST, parents: dict) -> bool:
    """Whether a loaded ``node`` only receives a subscript store
    (``obj.attr[i] = v``, ``obj.attr[i][j] += v``) rather than being read."""
    parent = parents.get(node)
    while isinstance(parent, ast.Subscript) and parent.value is node:
        if not isinstance(parent.ctx, ast.Load):
            return True
        node, parent = parent, parents.get(parent)
    return False


def _last_name(node: ast.AST) -> str:
    """``self`` for ``self``, ``flags`` for ``a.flags``, ``?`` otherwise."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or "?"


def attribute_uses(src: str = SRC):
    """Every attribute store under ``src`` and every attribute name loaded.

    Returns ``(stores, loaded, self_loaded, declared, bases)``: ``stores``
    lists ``(attr, owner, receiver, where)``, ``owner`` being the
    enclosing class of a store through ``self`` (else None) and
    ``receiver`` the last name of the stored-to expression; ``loaded``
    holds the names loaded other than through ``self`` in a class, and
    ``self_loaded`` maps a name loaded through ``self`` to the classes
    that load it so; ``declared`` maps an attribute name to the classes
    that declare it (a class-body annotation, ``__slots__`` or a store
    through ``self``); ``bases`` maps a class to its bases' names.  An
    augmented assignment to the attribute and a subscript store into it
    are stores, not loads; ``getattr`` / ``hasattr`` / ``attrgetter``
    with a literal name are loads, and ``setattr`` /
    ``object.__setattr__`` with one are stores.
    """
    stores: list[tuple[str, str | None, str, str]] = []
    loaded: set[str] = set()
    self_loaded: dict[str, set[str]] = {}
    declared: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}

    def visit(node: ast.AST, cls: str | None, module: str, parents: dict) -> None:
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            where = f"{module}:{getattr(child, 'lineno', 0)}"
            if isinstance(child, ast.ClassDef):
                bases.setdefault(child.name, set()).update(map(_last_name, child.bases))
                for stmt in child.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        declared.setdefault(stmt.target.id, set()).add(child.name)
                    elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                          and getattr(stmt.targets[0], "id", None) == "__slots__"
                          and isinstance(stmt.value, (ast.Tuple, ast.List))):
                        for elt in stmt.value.elts:
                            declared.setdefault(elt.value, set()).add(child.name)
                visit(child, child.name, module, parents)
                continue
            if isinstance(child, ast.Attribute):
                recv = _last_name(child.value)
                is_self = isinstance(child.value, ast.Name) and recv == "self"
                if isinstance(child.ctx, ast.Store):
                    stores.append((child.attr, cls if is_self else None, recv, where))
                    if is_self and cls:
                        declared.setdefault(child.attr, set()).add(cls)
                elif isinstance(child.ctx, ast.Load) and not _store_target(child, parents):
                    if is_self and cls:
                        self_loaded.setdefault(child.attr, set()).add(cls)
                    else:
                        loaded.add(child.attr)
            elif isinstance(child, ast.Call) and len(child.args) >= 2:
                fn = child.func
                name = getattr(fn, "id", None) or getattr(fn, "attr", None)
                literal = child.args[1]
                if isinstance(literal, ast.Constant) and isinstance(literal.value, str):
                    if name in ("getattr", "hasattr"):
                        loaded.add(literal.value)
                    elif name in ("setattr", "__setattr__"):
                        recv = _last_name(child.args[0])
                        owner = cls if recv == "self" else None
                        stores.append((literal.value, owner, recv, where))
            elif (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "attrgetter"
                  and child.args and isinstance(child.args[0], ast.Constant)):
                loaded.add(child.args[0].value)
            visit(child, cls, module, parents)

    for dirpath, _dirs, files in os.walk(src):
        for path in (os.path.join(dirpath, f) for f in files if f.endswith(".py")):
            with open(path, encoding="utf-8") as fh:
                module = os.path.relpath(path, os.path.dirname(src))[: -len(".py")]
                visit(ast.parse(fh.read()), None, module.replace(os.sep, "."), {})
    return stores, loaded, self_loaded, declared, bases


def _lineage(bases: dict[str, set[str]]) -> dict[str, set[str]]:
    """Class -> itself, its ``src/`` bases and its subclasses, transitively."""
    up: dict[str, set[str]] = {}

    def ancestors(cls: str) -> set[str]:
        if cls not in up:
            up[cls] = {cls}
            for base in bases.get(cls, ()):
                up[cls] |= ancestors(base)
        return up[cls]

    out = {cls: set(ancestors(cls)) for cls in bases}
    for cls in bases:
        for base in ancestors(cls):
            out.setdefault(base, {base}).add(cls)
    return out


def write_only_state(src: str = SRC, keep=WRITE_ONLY_KEEP) -> dict[str, list[str]]:
    """``Owner.attr`` -> store sites, for every attribute stored under
    ``src`` that nothing there loads and that ``keep`` does not name.

    A load through ``self`` reads the name only for its enclosing class
    and that class's bases and subclasses; any other load (``x.busy_ns``)
    counts as a read of every class's attribute of that name, so such
    loads still mask a write-only attribute that another class shares
    the name of.  A store through ``self`` is charged to its enclosing
    class; any other store to every class that declares the name (or,
    when none does, to the receiver's last name).
    """
    stores, loaded, self_loaded, declared, bases = attribute_uses(src)
    lineage = _lineage(bases)
    out: dict[str, list[str]] = {}
    for attr, owner, receiver, where in stores:
        if attr in loaded:
            continue
        owners = {owner} if owner else declared.get(attr) or {receiver}
        for cls in owners:
            if self_loaded.get(attr, set()) & lineage.get(cls, {cls}):
                continue
            if f"{cls}.{attr}" not in keep and f"{cls}.*" not in keep:
                out.setdefault(f"{cls}.{attr}", []).append(where)
    return dict(sorted(out.items()))


# --------------------------------------------------------------------- #
# checkpoint cut: a static pass over src/
# --------------------------------------------------------------------- #
#: reason -> "Class.attr ..." lines
CUT_KEPT_FOR = {
    "observability handle, set when a bus is attached":
        "Barrier.obs Collectives.obs CompilerExtensions.obs Network.obs",
    "stats keep accumulating across a rollback: re-execution is real work":
        "CompilerExtensions.stats Network.stats Node.stats",
    "fail-stop state: the RecoveryManager revives a node before the restore loop, "
    "and incarnations stay bumped so that no handler queued before a crash runs":
        "Node.alive Node.incarnation",
    "a hook installed before the run": "Barrier.on_checkpoint Barrier.on_complete",
    "the storage under, or per-node views of, the arrays the cut copies":
        "AccessControl._tag_buf AccessControl._imp_buf AccessControl.rows",
    "a server: its free-at time only moves forward, and a drained queue leaves no job":
        "Node.compute_cpu Network.links Network.switch",
    "counts jobs in service, which a drained queue leaves at zero":
        "Network._link_jobs Network._port_depth",
    "a cache of each frame size's wire time, fixed by the config": "Network._wire_ns",
    "restores itself: ReliableTransport.reset() starts a fresh epoch at every rollback":
        "Network.transport",
}
CUT_KEEP = {
    name: reason for reason, names in CUT_KEPT_FOR.items() for name in names.split()
}

#: methods that only read the object they are called on
READ_ONLY_CALLS = frozenset({"get", "items", "keys", "values", "copy"})


def _chain(node: ast.AST) -> tuple[ast.AST, list[str]]:
    """``(root, attrs)`` of ``root.a[i].b``: ``attrs`` is ``["a", "b"]``."""
    attrs = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attrs.append(node.attr)
        node = node.value
    return node, attrs[::-1]


def _changes(tree: ast.AST):
    """``(stmt, expr, how)`` for every change in ``tree``: ``expr`` is an
    assigned, augmented or deleted target (``how`` is ``"store"``) or the
    receiver of a method call that is not in :data:`READ_ONLY_CALLS`
    (``"call"``)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in (t for top in targets for t in ast.walk(top)):
                if (isinstance(target, (ast.Attribute, ast.Subscript))
                        and not isinstance(target.ctx, ast.Load)):
                    yield node, target, "store"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr not in READ_ONLY_CALLS):
            yield node, node.func.value, "call"


def _self_attrs(tree: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "self"}


def _cleared(restore: ast.FunctionDef) -> set[str]:
    """Attributes ``restore`` empties: ``self.x.clear()``, or ``self.x = v``
    where ``v`` reads no name but ``self``, a builtin or its own loop
    variables, so nothing of the cut."""
    out = set()
    for stmt, expr, how in _changes(restore):
        root, attrs = _chain(expr)
        if getattr(root, "id", None) != "self" or len(attrs) != 1:
            continue
        if how == "call" and stmt.func.attr == "clear":
            out.add(attrs[0])
        elif isinstance(stmt, ast.Assign):
            names = [n for n in ast.walk(stmt.value) if isinstance(n, ast.Name)]
            bound = {n.id for n in names if isinstance(n.ctx, ast.Store)} | {"self"}
            if all(n.id in bound or n.id in vars(builtins) for n in names):
                out.add(attrs[0])
    return out


def _defs(tree: ast.AST, cls: str | None = None):
    """``(class, def)`` for every function not nested in another one;
    ``class`` names the enclosing class, or is None."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _defs(node, node.name)
        elif isinstance(node, ast.FunctionDef):
            yield cls, node
        else:
            yield from _defs(node, cls)


def restore_classes(src: str = SRC) -> dict[str, dict]:
    """Every class under ``src`` that defines ``restore``: its name ->
    ``{"state": {attr: sites}, "cut": attrs, "covered": attrs, "cleared":
    attrs}``.

    An attribute is *state* when a function under ``src`` changes it (see
    :func:`_changes`).  In the class's own methods but ``__init__``, and in
    its subclasses that do not define ``restore``, a change through
    ``self.attr`` — however deep the chain below it — changes ``attr``.
    Anywhere, a change of ``x.attr`` or ``x.attr[i]`` changes every such
    class's ``attr`` by name.  An attribute ``__init__`` binds to a
    constructor parameter as it is (``self.engine = engine``) refers to a
    component owned elsewhere: only a store through it is a change.
    ``cut`` is what ``snapshot`` reads, ``covered`` what it or ``restore``
    reads, and ``cleared`` what ``restore`` empties outside the cut.
    """
    trees = {}
    for path in _py_files(src):
        with open(path, encoding="utf-8") as fh:
            module = os.path.relpath(path, os.path.dirname(src))[: -len(".py")]
            trees[module.replace(os.sep, ".")] = ast.parse(fh.read())
    classes = {node.name: node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
        return {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}

    scope = {name: cls for name, cls in classes.items() if "restore" in methods(cls)}
    owner = {name: name for name in scope}  # class -> the scope class it belongs to
    while found := {name: owner[base.id] for name, cls in classes.items()
                    if name not in owner for base in cls.bases
                    if getattr(base, "id", None) in owner}:
        owner.update(found)
    declared = {name: set() for name in scope}
    refs = {name: set() for name in scope}
    for name, target in owner.items():
        declared[target] |= _self_attrs(classes[name])
        init = methods(classes[name]).get("__init__")
        params = {a.arg for a in init.args.args} if init else set()
        refs[target] |= {
            t.attr for stmt in (init.body if init else ()) if isinstance(stmt, ast.Assign)
            and getattr(stmt.value, "id", None) in params for t in stmt.targets
            if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"
        }
    changed = {name: {} for name in scope}
    for module, tree in trees.items():
        for cls, fn in _defs(tree):
            inside = owner.get(cls) if fn.name != "__init__" else None
            for _stmt, expr, how in _changes(fn):
                root, attrs = _chain(expr)
                via_self = getattr(root, "id", None) == "self"
                site = (how, f"{module}:{expr.lineno}")
                if attrs and via_self and inside:
                    changed[inside].setdefault(attrs[0], []).append(site)
                if attrs and not (via_self and len(attrs) == 1):
                    for target in scope:
                        if attrs[-1] in declared[target]:
                            changed[target].setdefault(attrs[-1], []).append(site)
    out = {}
    for name, cls in scope.items():
        own = methods(cls)
        cut = _self_attrs(own["snapshot"]) if "snapshot" in own else set()
        state = {}
        for attr, sites in changed[name].items():
            if attr in refs[name]:
                sites = [site for site in sites if site[0] == "store"]
            if attr in declared[name] and sites:
                state[attr] = sorted({where for _, where in sites})
        out[name] = {
            "state": state,
            "cut": cut,
            "covered": cut | _self_attrs(own["restore"]),
            "cleared": _cleared(own["restore"]) - cut,
        }
    return out


def checkpoint_cut(src: str = SRC, keep=CUT_KEEP) -> dict[str, list[str]]:
    """``Class.attr`` -> change sites, for every attribute of a class with a
    ``restore`` that is state (:func:`restore_classes`) but that neither the
    class's ``snapshot`` nor its ``restore`` reads, and that ``keep`` does
    not name: a field a rollback would silently leave as it is."""
    out = {}
    for name, info in restore_classes(src).items():
        for attr, sites in info["state"].items():
            if attr not in info["covered"] and f"{name}.{attr}" not in keep:
                out[f"{name}.{attr}"] = sites
    return dict(sorted(out.items()))


# --------------------------------------------------------------------- #
# single-valued keywords: a static pass over src/ and its callers
# --------------------------------------------------------------------- #
#: where call sites are collected
CALLERS = tuple(os.path.join(ROOT, d) for d in ("src", "tests", "benchmarks", "examples"))

#: reason -> "module:qualname(keyword) ..." lines
KEYWORD_KEPT_FOR = {
    "passed positionally through replay's op table":
        "repro.tempest.extensions:CompilerExtensions.flush_and_invalidate(bulk)",
}
KEYWORD_KEEP = {
    name: reason for reason, names in KEYWORD_KEPT_FOR.items() for name in names.split()
}


def _py_files(root: str):
    for dirpath, _dirs, files in os.walk(root):
        yield from (os.path.join(dirpath, f) for f in sorted(files) if f.endswith(".py"))


def defaulted_keywords(src: str = SRC) -> dict[str, list[tuple[str, list[str], dict]]]:
    """Function name -> ``(module:qualname, positional, defaults)`` for
    every public function and method under ``src`` with a defaulted
    parameter: the parameters a caller may pass by position (``self`` /
    ``cls`` dropped) and each defaulted parameter's default, as source.
    ``__init__`` counts under its class's name."""
    out: dict[str, list[tuple[str, list[str], dict]]] = {}

    def visit(node, module: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not child.name.startswith("_") and cls is None:
                    visit(child, module, child.name)
            elif isinstance(child, ast.FunctionDef):
                name = child.name
                if name.startswith("_") and name != "__init__":
                    continue
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaults = dict(zip(positional[len(positional) - len(a.defaults):],
                                    map(ast.unparse, a.defaults)))
                defaults.update(
                    (p.arg, ast.unparse(d)) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None
                )
                if not defaults:
                    continue
                decorators = {getattr(d, "id", None) for d in child.decorator_list}
                if cls is not None and "staticmethod" not in decorators:
                    positional = positional[1:]
                qualname = f"{cls}.{name}" if cls else name
                key = cls if name == "__init__" else name
                out.setdefault(key, []).append((f"{module}:{qualname}", positional, defaults))

    for path in _py_files(src):
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read()), _module(path), None)
    return out


#: a value no literal comparison can pin (``*args`` / ``**kwargs``)
ANY = "<any>"


def passed_keywords(functions, roots=CALLERS) -> dict[str, dict[str, set[str]]]:
    """``module:qualname`` -> defaulted parameter -> the values (as source)
    calls under ``roots`` pass it, matching calls to definitions by name
    (``f(...)``, ``x.f(...)``; a class call reaches its ``__init__``).  A
    positional argument binds by position; ``*args`` or ``**kwargs`` at a
    call site passes every parameter :data:`ANY` value."""
    passed: dict[str, dict[str, set[str]]] = {}
    for root in roots:
        for path in _py_files(root):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                for qualname, positional, defaults in functions.get(name, ()):
                    got = passed.setdefault(qualname, {})
                    if any(isinstance(a, ast.Starred) for a in call.args) or any(
                        k.arg is None for k in call.keywords
                    ):
                        for p in defaults:
                            got.setdefault(p, set()).add(ANY)
                        continue
                    bound = [*zip(positional, call.args),
                             *((k.arg, k.value) for k in call.keywords)]
                    for p, value in bound:
                        if p in defaults:
                            got.setdefault(p, set()).add(ast.unparse(value))
    return passed


def single_valued_keywords(src: str = SRC, keep=KEYWORD_KEEP) -> list[str]:
    """``module:qualname(keyword)`` for every defaulted keyword of a public
    ``src`` callable that takes only its default — no call site passes it,
    or every one passes the default's own literal — and that ``keep``
    does not name: such a parameter is a constant."""
    functions = defaulted_keywords(src)
    passed = passed_keywords(functions)
    out = []
    for defs in functions.values():
        for qualname, _positional, defaults in defs:
            for p, default in defaults.items():
                values = passed.get(qualname, {}).get(p, set())
                name = f"{qualname}({p})"
                if values <= {default} and name not in keep:
                    out.append(name)
    return sorted(out)


def main() -> int:
    write_only = write_only_state()
    for name, sites in write_only.items():
        print(f"write-only  {name}  ({', '.join(sites)})")
    keywords = single_valued_keywords()
    for name in keywords:
        print(f"single-valued keyword  {name}")
    outside_cut = checkpoint_cut()
    for name, sites in outside_cut.items():
        print(f"outside the checkpoint cut  {name}  ({', '.join(sites)})")
    functions = src_functions()
    reached = reached_functions()
    called = loaded_names()
    unreached = {name: n for name, n in sorted(functions.items())
                 if name not in reached and own_name(name) not in called}
    for name, n in unreached.items():
        print(f"{n:5d}  {name}" + ("" if kept(name) else "  NOT IN KEEP"))
    bad = [name for name in unreached if not kept(name)]
    print(f"{len(functions) - len(unreached)} of {len(functions)} functions reached; "
          f"{len(unreached)} unreached ({sum(unreached.values())} lines), "
          f"{len(bad)} of them not in KEEP; "
          f"{len(write_only)} write-only attributes not in WRITE_ONLY_KEEP; "
          f"{len(keywords)} single-valued keywords not in KEYWORD_KEEP; "
          f"{len(outside_cut)} attributes outside the checkpoint cut not in CUT_KEEP")
    return 1 if bad or write_only or keywords or outside_cut else 0


if __name__ == "__main__":
    sys.exit(main())
