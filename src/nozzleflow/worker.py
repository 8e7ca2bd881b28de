"""One forked worker process that runs observers' reads while a run steps.

``nozzleflow run`` hands the monitors' block reads and the snapshot writes
to a :class:`Worker`.  The observers of :func:`nozzleflow.scheme.run` keep
their ``on_step`` calls in the parent; each passes the call that only reads
finished steps (a block's ``_read``, a snapshot's ``write``) to
:meth:`Worker.call`.  The worker is the run's last observer:

* its ``on_start`` forks, after every other observer's ``on_start``, so the
  child starts with the observers' state and the run's kernel bundle;
* each call then crosses a pipe, pickled, and the child runs the calls in
  order while the parent steps; the calls of one step share one pickle
  memo, so a step that both monitors read crosses once;
* its ``on_step`` ends each step's messages; that of the run's last step
  closes the pipe, waits for the child to run what is left, reaps it and
  takes back the clients' results (the attributes each names in
  ``_worker_state``), so all of the worker's time stays inside
  ``scheme.run``.

A step crosses with its arrays only: the run's parameters, gas constants,
kernel bundle and the bundle's tables go by reference (pickle's
``persistent_id``), as the index of the object the child inherited.  The
pipe holds 1 MiB where the system lets it, so the parent runs steps ahead
of the child; a full pipe blocks it, which bounds the memory.

The worker is forked, not spawned: a spawned one would start a fresh
interpreter and import NumPy and the package before its first read, which
costs about as much as a short run's stepping, where a forked one starts
with all of it loaded.  The parent's only other thread is OpenBLAS's idle
pool, which registers its own fork handlers.

As a context manager, the worker is reaped on every path: after an
``Exception`` (a cell build error) the child first runs the calls it was
sent, so the snapshots are those of the steps taken; after a
``KeyboardInterrupt`` it is killed.  An exception in the child is raised in
the parent, caused by a :class:`WorkerTraceback` holding the child's
traceback.  Before the fork, after the run, and where ``os.fork`` does not
exist, a call runs at once in the caller; the outputs are the same bytes
either way.
"""

import os
import pickle
import signal
import traceback

from .nozzle import get_bundle

try:
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:          # not Linux: the pipe keeps its default size
    fcntl = None

PIPE_BYTES = 1 << 20


class WorkerTraceback(Exception):
    """The traceback of an exception raised in the worker process: the
    cause of that exception, raised again in the parent."""


def references(ctx):
    """The objects that a run's messages name by reference: its parameters,
    gas constants, kernel bundle and the bundle's tables."""
    bundle = get_bundle(ctx["geom"], ctx["bound"])
    return [ctx["params"], ctx["constants"], bundle, bundle.tables]


class _Pickler(pickle.Pickler):
    """Pickles ``refs`` as their index in the list."""

    def __init__(self, file, refs):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._index = {id(obj): i for i, obj in enumerate(refs)}

    def persistent_id(self, obj):
        return self._index.get(id(obj))


class _Unpickler(pickle.Unpickler):
    """Loads what :class:`_Pickler` wrote, given the same ``refs``."""

    def __init__(self, file, refs):
        super().__init__(file)
        self._refs = refs

    def persistent_load(self, pid):
        return self._refs[pid]


def _serve(clients, refs, task_fd, result_fd):
    """The child: run the calls read from ``task_fd`` until its end, write
    ``(None, the clients' states)`` or ``(the error, its traceback)`` to
    ``result_fd``, and exit without running exit handlers or flushing the
    stdio buffers inherited from the parent."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent kills it
        with open(task_fd, "rb") as tasks:
            try:
                load = _Unpickler(tasks, refs).load
                while True:
                    try:
                        message = load()
                    except EOFError:
                        break
                    if message is None:       # a step's end: a new memo
                        load = _Unpickler(tasks, refs).load
                        continue
                    i, name, args = message
                    getattr(clients[i], name)(*args)
                result = (None, [{k: getattr(c, k) for k in c._worker_state}
                                 for c in clients])
            except Exception as e:
                result = (e, traceback.format_exc())
        try:
            data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            pickle.loads(data)
        except Exception:
            # an error that does not survive pickling arrives as its text
            data = pickle.dumps((RuntimeError(repr(result[0])), result[1]))
        with open(result_fd, "wb") as out:
            out.write(data)
        status = 0
    finally:
        os._exit(status)


class Worker:
    """Runs its clients' calls in one forked child while the run steps; the
    run's last observer, and a context manager that reaps the child (see
    the module docstring).  Each client's ``worker`` is set to it."""

    def __init__(self, clients):
        self.clients = tuple(clients)
        for client in self.clients:
            client.worker = self
        self._pid = None

    def call(self, client, name, *args):
        """``getattr(client, name)(*args)``: in the child while it runs,
        else here and now."""
        if self._pid is None:
            getattr(client, name)(*args)
        else:
            self._send((self.clients.index(client), name, args))

    def _send(self, message):
        """Pickle ``message`` to the child; ``None`` ends a step: it clears
        the memo that the step's messages share, so an object that several
        calls of a step pass crosses once, and flushes the pipe."""
        try:
            self._pickler.dump(message)
            if message is None:
                self._pickler.clear_memo()
                self._tasks.flush()
        except BrokenPipeError:
            self.join()      # the child stopped on an error: raise it here

    def on_start(self, state, ctx):
        """Fork, if steps are left and ``os.fork`` exists."""
        if state.n >= ctx["params"].n_steps or not hasattr(os, "fork"):
            return
        refs = references(ctx)
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        if fcntl is not None:
            try:
                fcntl(task_w, F_SETPIPE_SZ, PIPE_BYTES)
            except OSError:      # above the system's limit: keep 64 KiB
                pass
        pid = os.fork()
        if pid == 0:
            os.close(task_w)
            os.close(result_r)
            _serve(self.clients, refs, task_r, result_w)
        os.close(task_r)
        os.close(result_w)
        self._pid = pid
        self._tasks = open(task_w, "wb")
        self._results = open(result_r, "rb")
        self._pickler = _Pickler(self._tasks, refs)

    def on_step(self, prev, new, record):
        if self._pid is not None:
            self._send(None)
        if new.n >= record.params.n_steps:
            self.join()

    def join(self):
        """Close the pipe, wait for the child to run the calls left, reap
        it and take back its clients' states; raise the child's error, if
        it had one, with its traceback.  Interrupted, it leaves the child
        to :meth:`kill`."""
        if self._pid is None:
            return
        try:
            self._tasks.close()
        except BrokenPipeError:       # the child stopped early, on an error
            pass
        with self._results:
            try:
                error, payload = pickle.load(self._results)
            except EOFError:
                error = RuntimeError("the worker process ended without a "
                                     "result")
                payload = "(none)"
        self._reap()
        if error is not None:
            raise error from WorkerTraceback(payload)
        for client, state in zip(self.clients, payload):
            vars(client).update(state)

    def kill(self):
        """Kill and reap the child, dropping the calls it has not run."""
        if self._pid is None:
            return
        os.kill(self._pid, signal.SIGKILL)
        self._reap()
        try:
            self._tasks.close()
        except BrokenPipeError:
            pass
        self._results.close()

    def _reap(self):
        os.waitpid(self._pid, 0)
        self._pid = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if exc_info[1] is None or isinstance(exc_info[1], Exception):
            self.join()
        else:
            self.kill()


# the worker of an observer that no Worker serves: every call runs at once
INLINE = Worker(())
