"""Workload definitions: the operations each workload runs, drawn from a seed.

A seed draws inputs from the same families at the same sizes (the same
soliton branch, a 1% ``t0`` jitter, 2% on initial states and
invariant-curve parameters), so every seed does the same amount of work
and every gate still holds.
Seed 0 is the default and gives the README and acceptance inputs exactly.

A CLI operation is a dict with the ``argv`` passed to ``minkflow.cli``,
the exit code it must return, the gate that checks its output and the
paths (relative to the run's work directory) it writes.  An atlas
operation names a public-call group in ``atlas.py`` and its parameters;
the atlas also holds ``evolve`` commands as CLI operations, run in
process.  A traced run may hold operations a timed run does not.
"""

import json
import random

from expected import (LENGTH_POINTS, LENGTH_SERIES, MINKOWSKI_NAMES,
                      REGISTRY_NAMES)

DEFAULT_SEED = 0

# Workloads whose every operation is a CLI command in a fresh interpreter.
COLD_WORKLOADS = ("cli-cold",)


# Relative input jitter.  It is small so that every seed does the same
# work: the ODE cost of a trajectory moves with its initial state, by up
# to 40% for single atlas operations under a 20% jitter.
JITTER = 0.02


class _Jitter:
    """Relative jitter drawn from the seed; seed 0 gives no jitter."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def __call__(self, value, rel=JITTER):
        u = self.rng.uniform(-1.0, 1.0)
        return value if self.seed == 0 else value * (1.0 + rel * u)

    def choice(self, options, default):
        pick = self.rng.choice(options)
        return default if self.seed == 0 else pick


def _num(v):
    return format(v, ".6f")


def _op(name, argv, gate, writes=(), rc=0, **params):
    return {"name": name, "argv": list(argv), "rc": rc, "gate": gate,
            "writes": list(writes), "params": params}


def _evolve_argv(t0, t1, dx, out, extra=()):
    return ["evolve", "hyperbola-expander", "--t0", _num(t0),
            "--t1", _num(t1), "--dx", _num(dx), "--window", "-3", "3",
            "--snapshots", "4", *extra, "--out", out]


def cli_cold(seed, smoke=False, trace=False):
    j = _Jitter(seed)
    shown = j.choice(REGISTRY_NAMES, "translator-y")
    nu0 = j(-0.5)                   # stays on the crossing branch |nu0| < 1
    radius = j(1.0)
    alpha = j(0.5)
    t0 = j(0.5, 0.01)
    dt = j(1.5e-3)                  # far above the ~4e-6 stability bound
    bogus = "no-such-entry" if seed == 0 else f"no-such-entry-{seed}"
    points = 8 if smoke else LENGTH_POINTS
    selfsim = _op("selfsim",
                  ["selfsim", "--a", "0", "--b", "1",
                   "--init", f"0,{_num(nu0)}", "--s-max", "8",
                   "--out", "branch"], "selfsim_crossing",
                  writes=["branch"])
    return [
        _op("catalog-list", ["catalog", "list"], "catalog_list"),
        _op("catalog-show", ["catalog", "show", shown], "catalog_show",
            entry=shown),
        _op("verify-all", ["verify", "--all"], "verify_all"),
        selfsim,
        _op("catalog-lengths",
            ["catalog", "lengths", "--all", "--points", str(points),
             "--out", "lengths"], "lengths", writes=["lengths"],
            points=points),
        _op("invariant-hyperbola",
            ["invariant", "check", "--kind", "hyperbola",
             "--params", json.dumps({"radius": round(radius, 6)}),
             "--span", "-4", "4"], "invariance"),
        _op("invariant-spiral",
            ["invariant", "check", "--kind", "mink-log-spiral",
             "--params", json.dumps({"alpha": round(alpha, 6)}),
             "--span", "0.05", "12"], "invariance"),
        _op("plot", ["plot", "branch/curve.csv", "--out-file", "branch.svg"],
            "plot", writes=["branch.svg"]),
        _op("refuse-dt",
            _evolve_argv(t0, 2.0, 0.01, "refused", ["--dt", f"{dt:.6g}"]),
            "refusal_stability", writes=["refused"], rc=3),
        _op("refuse-name", ["catalog", "show", bogus], "refusal_unknown",
            rc=4),
        # The same command again: its files must be byte-identical.
        dict(selfsim, name="selfsim-repeat"),
    ]


def paper_atlas(seed, smoke=False, trace=False):
    j = _Jitter(seed)
    ops = []

    def add(group, name, **params):
        ops.append({"name": f"{group}:{name}", "group": group,
                    "label": name, "params": params})

    sig_r = 1e6
    nu_r = -(3.0 * sig_r) ** (1.0 / 3.0)
    eps = 1e-6 / 3 ** 0.5
    spots = [
        ("expansion A<1/e crossing", (0.0, 1.0), "taunu",
         (0.0, j(-0.5)), 8.0, {}),
        ("expansion A<1/e enclosed", (0.0, 1.0), "taunu",
         (0.0, j(-2.0)), 20.0, {}),
        ("expansion A=1/e unstable", (0.0, 1.0), "taunu",
         (eps * 2 ** 0.5, -1 + eps), (6.0, 25.0), {}),
        ("expansion A=1/e stable", (0.0, 1.0), "taunu",
         (eps * 2 ** 0.5, -1 - eps), (25.0, 6.0), {}),
        ("expansion A>1/e", (0.0, 1.0), "taunu",
         (j(1.0), -1.2), 10.0, {}),
        ("contraction", (0.0, -1.0), "taunu", (0.0, j(1.0)), 20.0, {}),
        ("rotation inflected", (1.0, 0.0), "taunu",
         (0.0, j(0.5)), 20.0, {}),
        ("rotation convex", (1.0, 0.0), "taunu",
         (j(3.0), -1.0), 20.0, {}),
        ("rotation trapped", (1.0, 0.0), "taunu",
         (-1.0 / nu_r * (1.0 - 1.0 / nu_r ** 4), nu_r), (0.0, 2e6),
         {"method": "Radau", "rtol": 1e-10, "atol": 1e-12,
          "blowup_threshold": 1e6}),
        ("screw beta<1 inflected", (1.0, -0.5), "kl",
         (0.0, j(0.5)), 20.0, {}),
        ("screw beta>1 trapped", (1.0, -2.0), "kl",
         (1.0 / (2 * 2e6), -2 * 2e6), (0.0, 5e6),
         {"method": "Radau", "rtol": 1e-10, "atol": 1e-12,
          "blowup_threshold": 1e6}),
    ]
    for label, ab, chart, init, s_max, kw in spots:
        add("classify", label, ab=ab, chart=chart, init=init, s_max=s_max,
            kw=kw)

    add("drift", "expansion", ab=(0.0, 1.0), init=(0.0, j(-0.5)),
        s_max=6.0)
    add("drift", "contraction", ab=(0.0, -1.0), init=(0.0, j(1.0)),
        s_max=20.0)
    add("drift", "rotation", ab=(1.0, 0.0), init=(0.0, j(0.5)),
        s_max=20.0)
    add("drift", "screw-translation", xi0=1.0, eta_span=(-4.0, 3.0))

    for label in LENGTH_SERIES:
        add("lengths", label, points=8 if smoke else LENGTH_POINTS)

    for name in MINKOWSKI_NAMES:
        add("profile", name)

    add("screw", "double-role", A=0.0, branch=-1, xi_span=(1.0 + 1e-6, 9.0),
        n=6001)
    add("screw", "invariant", A=j(0.5), branch=-1, xi_span=(1.0, 4.0))
    add("screw", "double-root", A=1.0)
    add("screw", "inflection", A=j(1.5), xi_span=(-1.0, 2.0), n=2001)

    add("invariance", "line", direction=(1.0, j(0.3)))
    add("invariance", "hyperbola", radius=j(1.0))
    add("invariance", "mink-log-spiral", alpha=j(0.5))
    add("invariance", "exp-diagonal")

    add("oracle", "routes")
    add("oracle", "formulations", t0=j(0.5, 0.01), dx=0.02 if smoke else 0.005)

    # The README curve under `evolve --boundary frozen` over a short
    # horizon, through minkflow.cli.main in the warm worker.  It comes
    # twice, so every pass checks its byte-determinism.  The README's own
    # evolve command (to t1 = 2.0) runs only in the traced run, where it
    # is gated and its flow.evolve share measured: its 9 s swing by a
    # quarter with the machine's speed and would set the spread of the
    # timed passes.
    t0 = j(0.5, 0.01)
    dx = 0.05 if smoke else 0.01
    frozen = _op("evolve:frozen",
                 _evolve_argv(t0, t0 + 0.1, dx, "frozen",
                              ["--boundary", "frozen"]),
                 "evolve_frozen", writes=["frozen"])
    ops.extend([frozen, frozen])
    if trace:
        ops.append(_op("evolve:readme", _evolve_argv(t0, 2.0, dx, "expander"),
                       "evolve_exact", writes=["expander"], t0=t0, t1=2.0,
                       dx=dx))
    return ops


BUILDERS = {"cli-cold": cli_cold, "paper-atlas": paper_atlas}


def build(workload, seed, smoke=False, trace=False):
    return BUILDERS[workload](seed, smoke, trace)
