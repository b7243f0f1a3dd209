"""Output gates for CLI operations.

Each gate reads what one command printed and wrote and raises
``GateError`` when it disagrees with the known answer in ``expected.py``.
Gates use only the standard library, so checking costs the timed child
processes nothing.
"""

import hashlib
import json
import math
import os
import shutil

import expected as ex


class GateError(Exception):
    """An operation's output disagrees with its known answer."""


def _require(cond, msg):
    if not cond:
        raise GateError(msg)


def _read(workdir, rel):
    with open(os.path.join(workdir, rel)) as fh:
        return fh.read()


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]


def catalog_list(op, stdout, stderr, workdir):
    names = [line.split()[0] for line in stdout.splitlines() if line.strip()]
    _require(names == list(ex.REGISTRY_NAMES),
             f"catalog list gave {names}")


def catalog_show(op, stdout, stderr, workdir):
    info = json.loads(stdout)
    _require(info.get("name") == op["params"]["entry"]
             and info.get("expression"), f"catalog show gave {info}")


def verify_all(op, stdout, stderr, workdir):
    lines = [line for line in stdout.splitlines() if line.strip()]
    passed = [line.split()[0] for line in lines if line.endswith(" PASS")]
    _require(len(lines) == 16 and passed == list(ex.REGISTRY_NAMES),
             f"verify --all passed {len(passed)} of {len(lines)}")


def selfsim_crossing(op, stdout, stderr, workdir):
    rep = json.loads(_read(workdir, "branch/classification.json"))
    ends = {side: rep["ends"][side]["curvature_limit"]
            for side in ("backward", "forward")}
    _require(rep["crosses_xi"] and rep["crosses_eta"],
             "selfsim trajectory does not cross both diagonals")
    _require(ends == {"backward": "zero", "forward": "zero"},
             f"selfsim end curvatures {ends}, expected zero on both")
    for name in ("trajectory.csv", "events.json", "curve.csv"):
        _require(os.path.getsize(os.path.join(workdir, "branch", name)) > 0,
                 f"selfsim wrote an empty {name}")


def lengths(op, stdout, stderr, workdir):
    series = {}
    for label, _name, t, length in _csv_rows(
            _read(workdir, "lengths/lengths.csv"))[1:]:
        series.setdefault(label, []).append((float(t), float(length)))
    _require(sorted(series) == sorted(ex.LENGTH_SERIES),
             f"lengths series {sorted(series)}")
    for label, rows in series.items():
        _require(len(rows) == op["params"]["points"],
                 f"series {label} has {len(rows)} points")
        check_length_shape(label, [v for _t, v in rows])


def check_length_shape(label, values):
    shape = ex.LENGTH_SERIES[label][1]
    d = [b - a for a, b in zip(values, values[1:])]
    if shape == "constant":
        worst = max(abs(v - math.pi) for v in values)
        _require(worst <= ex.LENGTH_PI_TOL,
                 f"series {label} strays {worst:.2e} from pi")
    elif shape == "decreasing":
        _require(all(x < 0 for x in d), f"series {label} is not decreasing")
    elif shape == "increasing":
        _require(all(x > 0 for x in d), f"series {label} is not increasing")
    else:
        signs = [1 if x > 0 else -1 if x < 0 else 0 for x in d]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        _require(flips == 1 and signs[0] > 0 and signs[-1] < 0,
                 f"series {label} is not unimodal")


def invariance(op, stdout, stderr, workdir):
    rep = json.loads(stdout)
    _require(rep["passed"] and rep["deviation"] <= ex.INVARIANCE_TOL,
             f"invariance deviation {rep['deviation']:.2e}")


def plot(op, stdout, stderr, workdir):
    doc = _read(workdir, "branch.svg")
    _require("<svg" in doc and "</svg>" in doc and "<polyline" in doc,
             "plot wrote no SVG polyline")


def refusal_stability(op, stdout, stderr, workdir):
    _require("stability bound" in stderr,
             f"refusal does not name the stability bound: {stderr!r}")


def refusal_unknown(op, stdout, stderr, workdir):
    _require("UnknownSolution" in stderr, f"unexpected refusal {stderr!r}")


def _snapshot(workdir, out, index):
    text = _read(workdir, os.path.join(out, f"snapshot_{index:03d}.csv"))
    t = float(text.splitlines()[0].split("=", 1)[1])
    rows = _csv_rows(text)[1:]
    return t, [float(a) for a, _ in rows], [float(b) for _, b in rows]


def evolve_exact(op, stdout, stderr, workdir):
    """Final snapshot within 5(dx^2 + dt) of y = sqrt(x^2 + 2t)."""
    p = op["params"]
    t, xs, ys = _snapshot(workdir, "expander", 3)
    _require(abs(t - p["t1"]) <= 1e-12, f"final snapshot at t={t}")
    y0 = [math.sqrt(x * x + 2.0 * p["t0"]) for x in xs]
    dt = ex.stability_dt("graph_y", xs, y0)
    err = max(abs(y - math.sqrt(x * x + 2.0 * t)) for x, y in zip(xs, ys))
    bound = ex.evolve_bound(p["dx"], dt)
    _require(err <= bound, f"evolve error {err:.2e} above {bound:.2e}")


def evolve_frozen(op, stdout, stderr, workdir):
    """Frozen ends: finite values and a space-like final graph."""
    _t, xs, ys = _snapshot(workdir, "frozen", 3)
    _require(all(math.isfinite(y) for y in ys), "non-finite frozen values")
    slopes = [(y1 - y0) / (x1 - x0)
              for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
    _require(max(abs(s) for s in slopes) < 1.0,
             "frozen-boundary graph left the space-like cone")


def check(op, rc, stdout, stderr, workdir):
    """Raise GateError unless the operation's exit code and output hold."""
    _require(rc == op["rc"], f"exit code {rc}, expected {op['rc']}: "
                             f"{stderr.strip()[-300:]}")
    globals()[op["gate"]](op, stdout, stderr, workdir)


def clear_outputs(op, workdir):
    """Remove what an operation writes, so stale files cannot pass a gate."""
    for rel in op["writes"]:
        path = os.path.join(workdir, rel)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.unlink(path)


def output_digest(op, stdout, workdir):
    """sha256 over stdout and every file the operation wrote."""
    h = hashlib.sha256(stdout.encode())
    for rel in op["writes"]:
        path = os.path.join(workdir, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, workdir).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
