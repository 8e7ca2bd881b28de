"""Every function of the package reads each of its parameters, and every
array of a step has one owner.

A parameter that nothing reads is a contract that nothing checks: callers
compute and pass a value the function ignores.  The one exception is the
observer protocol of ``scheme.run``: it calls ``on_start(state, ctx)`` and
``on_step(prev, new, record)`` on every observer, each of which reads only
the arguments it needs.  Likewise a second name for an array of the step's
piece table is a second place to keep in step with it.
"""

import ast
import dataclasses
import pathlib

import numpy as np

import nozzleflow
from nozzleflow import (BoundFunction, GasConstants, NozzleGeometry,
                        SchemeParameters, advance, initialize)
from nozzleflow.initialdata import GaussianBumpData

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


def test_step_record_names_no_piece_array():
    # the piece table owns its cells' arrays; the record holds the table
    # and its own arrays (front flags, cases), none of the table's
    c = GasConstants.for_gamma(1.4)
    geom = NozzleGeometry.constant(X=1.0)
    b = BoundFunction.zero(domain=(-2.0, 2.0))
    params = SchemeParameters.create(dx=0.1, M=6.0, b=b, T=0.0, c=c)
    u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.3, width=0.3)
    state, mesh = initialize(u0, params, geom, b, c)
    _new, rec = advance(state, params, geom, b, c, mesh)
    owned = [v for v in vars(rec.pieces).values()
             if isinstance(v, np.ndarray)]
    assert any(a is rec.pieces.jcells for a in owned)
    shared = [f.name for f in dataclasses.fields(rec)
              if isinstance(getattr(rec, f.name), np.ndarray)
              and any(np.shares_memory(getattr(rec, f.name), a)
                      for a in owned)]
    assert shared == []
