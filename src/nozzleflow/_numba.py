"""Kept only for the benchmark harness, which imports ``NUMBA_ENABLED`` from
here to report which kernels ran (``perfbench/run.py`` and
``perfbench/tracing.py``).  The kernels in :mod:`nozzleflow._kernels` are
always interpreted Python; numba is not used."""

NUMBA_ENABLED = False
