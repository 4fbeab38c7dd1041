"""Static guard: every active message is a bound method plus an argument tuple.

``Network.send`` carries ``(handler, args)`` to the destination and runs
``handler(*args, seq)``; the transaction lock queues ``(fn, args)`` the
same way.  A ``lambda`` or a nested ``def`` in one of those handler slots
— or a call that builds the handler, such as a closure factory or
``functools.partial`` — would bring back an allocation per message, so an
AST pass over ``src/repro/tempest/`` rejects all three.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.tempest

TEMPEST = Path(repro.tempest.__file__).parent

#: called attribute -> (positional index, keyword) of its handler argument
HANDLER_SLOTS = {
    "send": (3, "handler"),
    "dispatch": (3, "handler"),
    "_lock": (1, "fn"),
}


def _handler_arg(call: ast.Call) -> ast.expr | None:
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in HANDLER_SLOTS:
        return None
    index, keyword = HANDLER_SLOTS[func.attr]
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def closure_handlers(source: str, filename: str = "<src>") -> tuple[list[str], int]:
    """(violations, handler sites checked) in one module's source."""
    violations: list[str] = []
    sites = 0
    for fn in ast.walk(ast.parse(source, filename)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # Names the function binds to a nested def or to a lambda.
        local = {
            node.name for node in ast.walk(fn)
            if node is not fn
            and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        } | {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            arg = _handler_arg(call)
            if arg is None:
                continue
            sites += 1
            if isinstance(arg, (ast.Lambda, ast.Call)) or (
                isinstance(arg, ast.Name) and arg.id in local
            ):
                violations.append(
                    f"{filename}:{call.lineno}: {ast.unparse(arg)[:40]} "
                    f"passed as the handler of .{call.func.attr}()"
                )
    return violations, sites


def test_tempest_handlers_are_bound_methods():
    violations: list[str] = []
    sites = 0
    for path in sorted(TEMPEST.glob("*.py")):
        found, n = closure_handlers(path.read_text(), path.name)
        violations += found
        sites += n
    assert violations == []
    # Every sender module is reached: the guard is not vacuous.
    assert sites >= 25


def test_guard_catches_lambdas_nested_defs_and_factories():
    source = '''
def sender(self, block, done):
    def at_home(seq):
        done.resolve(None)
    cb = lambda seq: None
    self.network.send(0, 1, KIND, lambda seq: None, (), 0)
    self.network.send(0, 1, KIND, at_home, (), 0)
    self.network.send(0, 1, KIND, handler=cb, args=(), handler_cost_ns=0)
    self.network.dispatch(1, 0, 0, at_home, (), None)
    self._lock(block, lambda: None)
    self.network.send(0, 1, KIND, make_handler(block), (), 0)
    self._lock(block, self._home_read, block, 0, done)
    self.network.send(0, 1, KIND, self._on_ack, (block,), 0)
'''
    violations, sites = closure_handlers(source)
    assert sites == 8
    assert len(violations) == 6
