"""Generated configs, end to end: ``nozzleflow run`` either runs one to
four steps with a clean audit or refuses the config with one ``error:``
line.

Each example writes a config (a constant, bump or Laval duct with a
generated ``geometry_eps``, gamma in (1, 5/3], dx from a fixed ladder,
``cutoff`` on or off, one of the three analytic initial profiles and an
auto, zero or constant bound function) and runs ``cli.main`` in-process.
``t_final`` is a whole number of steps: the config is first resolved at
``t_final = 0`` for its dt.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from nozzleflow.cli import RH_HARD_THRESHOLD, main, parse_config
from nozzleflow.errors import ConfigError

DX_LADDER = (0.05, 0.1, 0.2)


def _num(draw, lo, hi):
    return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))


@st.composite
def configs(draw):
    """The config text without ``t_final``, and the number of steps."""
    geometry = draw(st.sampled_from(["constant", "bump", "laval"]))
    # gamma = 1 + k/300 spreads the draws over (1, 5/3]: unbounded float
    # draws fall next to 1, which parse_config refuses
    lines = [f"gamma = {1.0 + draw(st.integers(1, 200)) / 300.0!r}",
             f"geometry = {geometry}",
             f"dx = {draw(st.sampled_from(DX_LADDER))!r}",
             f"cutoff = {draw(st.sampled_from(['on', 'off']))}"]
    if geometry == "bump":
        lines.append(f"geometry_eps = {_num(draw, -0.5, 0.5)!r}")
    elif geometry == "laval":
        eps = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        lines.append(f"geometry_eps = {eps!r}")
    initial = draw(st.sampled_from(["riemann-step", "gaussian-density",
                                    "gaussian-velocity"]))
    lines.append(f"initial = {initial}")
    if initial == "riemann-step":
        keys = (("rho_left", 0.0, 2.0), ("v_left", -1.0, 1.0),
                ("rho_right", 0.0, 2.0), ("v_right", -1.0, 1.0),
                ("x_step", -0.5, 0.5))
    else:
        amp = "rho_amp" if initial == "gaussian-density" else "v_amp"
        keys = (("rho_inf", 0.0, 2.0), (amp, -0.5, 0.5),
                ("v_inf", -0.5, 0.5), ("center", -0.5, 0.5),
                ("width", 0.1, 0.4))
    lines += [f"{k} = {_num(draw, lo, hi)!r}" for k, lo, hi in keys]
    bound = draw(st.sampled_from(["auto", "zero", "const"]))
    if bound == "const":
        bound = f"const:{_num(draw, 0.0, 0.2)!r}:-1.5:1.5"
    lines.append(f"b_function = {bound}")
    return "\n".join(lines) + "\n", draw(st.integers(1, 4))


def _run(text):
    """``nozzleflow run`` of the config ``text``, in a temporary directory,
    with warnings as errors: (exit status, stdout, stderr, the audit
    summary or None)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        out_dir = os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + f"out_dir = {out_dir}\n")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = main(["run", "--config", path])
        audit = os.path.join(out_dir, "audit_modified.json")
        summary = None
        if os.path.exists(audit):
            with open(audit, encoding="utf-8") as fh:
                summary = json.load(fh)
        return rc, out.getvalue(), err.getvalue(), summary


@settings(max_examples=200, derandomize=True, deadline=None)
@given(configs())
def test_runs_or_refuses_in_one_line(case):
    text, steps = case
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "dt.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "t_final = 0\n")
            dt = parse_config(path).params.dt
        t_final = steps * dt
    except (ConfigError, ValueError):
        t_final = 0.0       # the run is refused by the same line
    rc, out, err, summary = _run(text + f"t_final = {t_final!r}\n")
    if rc == 1:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert summary is None
        return
    assert rc in (0, 2), (rc, err)
    assert summary["steps"] == steps
    assert summary["max_rh_residual"] < RH_HARD_THRESHOLD
    assert summary["max_envelope_violation"] == 0.0
