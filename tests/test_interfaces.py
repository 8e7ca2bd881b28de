"""Every function of the package reads each of its parameters.

A parameter that nothing reads is a contract that nothing checks: callers
compute and pass a value the function ignores.  The one exception is the
observer protocol of ``scheme.run``: it calls ``on_start(state, ctx)`` and
``on_step(prev, new, record)`` on every observer, each of which reads only
the arguments it needs.
"""

import ast
import pathlib

import nozzleflow

PACKAGE = pathlib.Path(nozzleflow.__file__).parent

# (function name, parameter) pairs the observer protocol passes whether or
# not the observer reads them
OBSERVER_ARGS = {("on_start", "ctx"), ("on_step", "prev"),
                 ("on_step", "record")}


def _unread_parameters(path):
    """(function name, line, parameter) of every parameter of every
    function or lambda in the module at ``path`` that its body never
    loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs + [args.vararg, args.kwarg] if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(name, node.lineno, p) for p in params
                  if p not in loaded and (name, p) not in OBSERVER_ARGS]
    return found


def test_every_parameter_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    unread = [f"{path.name}:{line} {name}({param})"
              for path in modules
              for name, line, param in _unread_parameters(path)]
    assert unread == []


def test_unread_parameter_found(tmp_path):
    # the walk sees a parameter read by no statement, and the observer
    # exception covers only the protocol's own names
    src = tmp_path / "m.py"
    src.write_text("def f(a, b):\n    return a\n"
                   "def on_step(self, prev, new, record, extra):\n"
                   "    return self, new\n"
                   "g = lambda x, y: y\n")
    assert _unread_parameters(src) == [("f", 1, "b"),
                                       ("on_step", 3, "extra"),
                                       ("<lambda>", 5, "x")]
