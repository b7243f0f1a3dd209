"""Command-line front end.

Subcommands: evolve, selfsim, classify, verify, catalog, invariant, plot.
Outputs (CSV/JSON/SVG) are deterministic: identical configurations give
byte-identical files.  Exit codes: 0 success, 2 validation error,
3 numerical failure, 4 unknown name.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import catalog, flow, geometry, invariants, selfsim, svg
from .errors import InvalidParams, MinkflowError, UnknownSolution
from .flow import Dirichlet, FlowGrid, FlowKind
from .geometry import _atomic_write
from .selfsim import Chart, SolitonParams

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_UNKNOWN = 0, 2, 3, 4


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _parse_expr(text: str, var_name: str):
    form = flow.ClosedForm(text, var_name, "t", name=text)
    form.sampler  # compiles, so the formula is checked here, not mid-run
    return form


def _initial_grid(args) -> tuple[FlowGrid, object]:
    """Build the starting grid and a boundary policy from --initial."""
    spec = args.initial
    window = (args.window[0], args.window[1])
    if not (args.dx > 0.0 and math.isfinite(args.dx)):
        raise InvalidParams(f"--dx must be positive and finite, not {args.dx:g}")
    if not window[0] < window[1]:
        raise InvalidParams(f"--window {window[0]:g} {window[1]:g} is empty")
    if not (math.isfinite(window[0]) and math.isfinite(window[1])):
        raise InvalidParams(f"--window takes two finite numbers, not "
                            f"{window[0]:g} {window[1]:g}")
    n = int(round((window[1] - window[0]) / args.dx)) + 1
    if n < 5:
        raise InvalidParams(f"--dx {args.dx:g} over --window {window[0]:g} "
                            f"{window[1]:g} gives {n} nodes; the flow needs 5")
    nodes = np.linspace(window[0], window[1], n)
    kind = FlowKind(args.kind)
    graph = geometry._GRAPH_FORMS[args.kind]
    if spec.startswith("csv:"):
        at, on = graph.view(geometry.read_curve_csv(spec[4:]))
        order = np.argsort(at)
        at, on = at[order], on[order]
        if not at[0] <= window[0] < window[1] <= at[-1]:
            raise InvalidParams(
                f"--window {window[0]:g} {window[1]:g} reaches past the "
                f"{graph.names[0]} range [{at[0]:g}, {at[-1]:g}] of "
                f"{spec[4:]}")
        return FlowGrid(kind, nodes, np.interp(nodes, at, on), args.t0), None
    if spec.startswith("expr:"):
        form = _parse_expr(spec[5:], graph.names[0])
    else:
        entry = catalog.get(spec)
        if entry.plane is not flow.Plane.MINKOWSKI:
            raise InvalidParams(
                f"{entry.name} is a {entry.plane.value} entry; evolve solves "
                "only the Minkowski flow")
        lo, hi = entry.t_domain
        for flag, t in (("--t0", args.t0), ("--t1", args.t1)):
            if not lo < t < hi:
                raise InvalidParams(
                    f"{flag}={t:g} is outside the time domain ({lo:g}, "
                    f"{hi:g}) of {entry.name}")
        kind, form = entry.kind, entry.form
    grid = FlowGrid(kind, nodes, form(nodes, args.t0), args.t0)
    return grid, Dirichlet(lambda t: float(form(nodes[0], t)),
                           lambda t: float(form(nodes[-1], t)))


def cmd_evolve(args) -> int:
    cfg = {"cmd": "evolve", "initial": args.initial, "t0": args.t0,
           "t1": args.t1, "dx": args.dx, "window": list(args.window),
           "snapshots": args.snapshots, "kind": args.kind,
           "boundary": args.boundary}
    _count("--snapshots", args.snapshots)
    grid, bc = _initial_grid(args)
    if not args.t0 <= args.t1 < math.inf:
        raise InvalidParams(f"--t1 must be finite and not precede --t0, not "
                            f"--t0 {args.t0:g} --t1 {args.t1:g}")
    if args.dt is not None:
        bound = flow.stability_dt(grid)
        if args.dt > bound * (1.0 + 1e-9):
            from .errors import StabilityViolation
            raise StabilityViolation(
                f"requested dt={args.dt:g} exceeds the stability bound "
                f"{bound:.3e} of the initial grid")
    every = (args.t1 - grid.t) / max(1, args.snapshots - 1) \
        if args.snapshots > 1 else None
    snaps = flow.evolve(grid, args.t1, snapshot_every=every, max_dt=args.dt,
                        boundary=None if args.boundary == "frozen" else bc)
    curves = []
    to_xy = geometry._GRAPH_FORMS[grid.kind.value].to_xy
    for i, g in enumerate(snaps):
        geometry._write_csv(os.path.join(args.out, f"snapshot_{i:03d}.csv"),
                            f"# t={g.t:.17g}\nnode,value", [g.nodes, g.values])
        curves.append(np.column_stack(to_xy(g.nodes, g.values)))
    doc = svg.render(curves, labels=[f"t={g.t:.6g}" for g in snaps],
                     config_hash=_config_hash(cfg), title=args.initial)
    _atomic_write(os.path.join(args.out, "evolve.svg"), doc)
    print(f"wrote {len(snaps)} snapshots to {args.out}")
    return EXIT_OK


def _numbers(flag: str, text: str, counts: tuple | None = None) -> tuple:
    """The comma-separated numbers given to ``flag``; if ``counts`` is
    given, there must be one of ``counts`` of them."""
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise InvalidParams(f"{flag} takes comma-separated numbers, "
                            f"not {text!r}") from None
    if counts and len(values) not in counts:
        raise InvalidParams(
            f"{flag} takes {' or '.join(map(str, counts))} comma-separated "
            f"numbers, not {len(values)} ({text!r})")
    return values


def _count(flag: str, n: int):
    if n < 1:
        raise InvalidParams(f"{flag} must be a positive count, not {n}")


def _tol(args, default: float) -> float:
    """The --tol override, or ``default`` without one."""
    if args.tol is None:
        return default
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise InvalidParams(
            f"--tol must be positive and finite, not {args.tol:g}")
    return args.tol


def _run_trajectory(args):
    p = SolitonParams(args.a, args.b)
    init = _numbers("--init", args.init, (2, 3))
    chart = Chart.TAU_NU if args.chart == "taunu" else Chart.KL
    return p, selfsim.integrate_phase(p, chart, init, s_max=args.s_max)


def cmd_selfsim(args) -> int:
    p, traj = _run_trajectory(args)
    curve = selfsim.reconstruct(traj)  # may refuse: write nothing before
    report = selfsim.classify(p, traj)
    geometry._write_csv(os.path.join(args.out, "trajectory.csv"),
                        "s,tau,nu,theta,k,l", [traj.s, traj.tau, traj.nu,
                                               traj.theta, traj.k, traj.l])
    _atomic_write(os.path.join(args.out, "events.json"),
                  _json_dumps(traj.events))
    geometry.write_curve_csv(curve, os.path.join(args.out, "curve.csv"))
    _atomic_write(os.path.join(args.out, "classification.json"),
                  _json_dumps(dataclasses.asdict(report)))
    print(f"trajectory, curve and classification written to {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    p, traj = _run_trajectory(args)
    text = _json_dumps(dataclasses.asdict(selfsim.classify(p, traj)))
    if args.out:
        _atomic_write(os.path.join(args.out, "classification.json"), text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = catalog.names() if args.all else (args.names or "").split(",")
    names = [n for n in names if n]
    if not names:
        raise InvalidParams("pass --all or --names")
    order_tol = _tol(args, catalog.ORDER_TOL)
    results = catalog.verify_all(only=names, order_tol=order_tol)
    payload = [{"name": r["name"], "passed": r["passed"],
                "report": dataclasses.asdict(r["report"])} for r in results]
    text = _json_dumps(payload)
    if args.out:
        _atomic_write(os.path.join(args.out, "verify.json"), text)
    for r in payload:
        order = r["report"]["observed_order"]
        print(f"{r['name']:<20} order={order if order is None else round(order, 3)} "
              f"{'PASS' if r['passed'] else 'FAIL'}")
    return EXIT_OK if all(r["passed"] for r in payload) else EXIT_NUMERICAL


def cmd_catalog_list(args) -> int:
    for name in catalog.names():
        e = catalog.get(name)
        print(f"{name:<20} {e.plane.value:<10} {e.kind.value:<16} "
              f"t in ({e.t_domain[0]:g}, {e.t_domain[1]:g})")
    return EXIT_OK


def cmd_catalog_show(args) -> int:
    e = catalog.get(args.name)
    info = {"name": e.name, "plane": e.plane.value, "kind": e.kind.value,
            "t_domain": list(e.t_domain), "expression": e.form.text,
            "curvature_profile": e.curvature_profile.form.text,
            "finite_length": e.finite_length, "notes": e.notes,
            "wick_partner": e.wick_partner}
    sys.stdout.write(_json_dumps(info))
    return EXIT_OK


def cmd_catalog_lengths(args) -> int:
    _count("--points", args.points)
    series_of = {nm: lb for lb, (nm, _) in catalog.LENGTH_SERIES.items()}
    if not args.name:
        labels = list(catalog.LENGTH_SERIES)
    elif catalog.get(args.name).name in series_of:
        labels = [series_of[args.name]]
    else:
        raise InvalidParams(f"{args.name} has no finite-length series; "
                            f"those with one: {', '.join(series_of)}")
    rows = ["series,name,t,length"]
    for lb in labels:
        name, _ = catalog.LENGTH_SERIES[lb]
        lo, hi = catalog.LENGTH_GRIDS[lb]
        series = catalog.length_vs_time(name, np.linspace(lo, hi, args.points))
        rows += [f"{lb},{name},{t:.17g},{val:.17g}" for t, val in series]
    text = "\n".join(rows) + "\n"
    if args.out:
        _atomic_write(os.path.join(args.out, "lengths.csv"), text)
        print(f"wrote {os.path.join(args.out, 'lengths.csv')}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_invariant(args) -> int:
    _count("--n", args.n)
    lo, hi = args.span
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParams(f"--span takes two finite numbers in increasing "
                            f"order, not {lo:g} {hi:g}")
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise InvalidParams(
            f"--params must be a JSON object, not {args.params!r}")
    spec = invariants.InvariantCurveSpec(invariants.InvariantKind(args.kind),
                                         params)
    curve = invariants.make_invariant_curve(spec, (lo, hi), n=args.n)
    if args.action == "make":
        path = os.path.join(args.out, f"invariant-{args.kind}.csv")
        geometry.write_curve_csv(curve, path)
        print(f"wrote {path}")
        return EXIT_OK
    t_probe = _numbers("--t-probe", args.t_probe)
    f0, f1 = args.probe_fraction
    if not 0.0 <= f0 < f1 <= 1.0:
        raise InvalidParams(f"--probe-fraction takes two fractions in [0, 1] "
                            f"in increasing order, not {f0:g} {f1:g}")
    tol = _tol(args, 1e-8)
    dev = invariants.check_invariance(curve, invariants.invariant_motion(spec),
                                      t_probe, probe_fraction=(f0, f1))
    payload = {"kind": args.kind, "t_probe": t_probe, "deviation": dev,
               "tolerance": tol, "passed": bool(dev <= tol)}
    text = _json_dumps(payload)
    if args.out:
        _atomic_write(os.path.join(args.out, "invariance.json"), text)
    sys.stdout.write(text)
    return EXIT_OK if payload["passed"] else EXIT_NUMERICAL


def cmd_plot(args) -> int:
    curves, labels = [], []
    for path in args.csv:
        curves.append(geometry.read_curve_csv(path).points)
        labels.append(os.path.basename(path))
    cfg = {"cmd": "plot", "inputs": [os.path.basename(p) for p in args.csv]}
    doc = svg.render(curves, labels=labels, config_hash=_config_hash(cfg))
    _atomic_write(args.out_file, doc)
    print(f"wrote {args.out_file}")
    return EXIT_OK


def _number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """In a leaf command, the word after an unknown option is that option's
    value: both are left over, so ``--all --tol nan`` refuses ``--tol nan``
    instead of reading nan as a positional argument."""

    def parse_known_args(self, args=None, namespace=None):
        if args is None or self.get_default("func") is None:
            return super().parse_known_args(args, namespace)
        known, unknown, rest = [], [], list(args)
        while rest:
            word = rest.pop(0)
            if word == "--":
                known += [word, *rest]
                break
            if word[:1] != "-" or len(word) == 1 or _number(word) \
                    or word.partition("=")[0] in self._option_string_actions:
                known.append(word)
                continue
            unknown.append(word)
            if "=" not in word and rest and (rest[0][:1] != "-"
                                             or _number(rest[0])):
                unknown.append(rest.pop(0))
        namespace, extra = super().parse_known_args(known, namespace)
        return namespace, unknown + extra


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="minkflow", allow_abbrev=False,
        description="curvature flow of space-like curves in the "
                    "split-signature plane")
    ap.add_argument("--config", help="JSON file of option values for the "
                                     "chosen subcommand")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(group, name, func, help, out=False, tol=False):
        """A leaf command; ``out`` is the --out default, False for none."""
        p = group.add_parser(name, help=help, allow_abbrev=False)
        # --config may follow the command; SUPPRESS keeps an earlier value.
        p.add_argument("--config", default=argparse.SUPPRESS)
        if out is not False:
            p.add_argument("--out", default=out, help="output directory")
        if tol:
            p.add_argument("--tol", type=float, help="tolerance override")
        p.set_defaults(func=func, parser=p)
        return p

    ev = command(sub, "evolve", cmd_evolve,
                 "run the flow from an initial curve", out="out")
    ev.add_argument("initial", help="catalog name, csv:PATH, or expr:FORMULA")
    ev.add_argument("--kind", default="graph_y",
                    choices=list(geometry._GRAPH_FORMS))
    ev.add_argument("--t0", type=float, default=0.0)
    ev.add_argument("--t1", type=float, required=True)
    ev.add_argument("--dx", type=float, default=0.01)
    ev.add_argument("--dt", type=float, default=None,
                    help="cap on the step of the explicit Euler reference "
                         "scheme (checked against stability); without it "
                         "the flow is solved by BDF")
    ev.add_argument("--window", type=float, nargs=2, default=(-2.0, 2.0))
    ev.add_argument("--snapshots", type=int, default=4)
    ev.add_argument("--boundary", default="exact",
                    choices=("exact", "frozen"))

    for name, fn, out in (("selfsim", cmd_selfsim, "out"),
                          ("classify", cmd_classify, None)):
        sp_ = command(sub, name, fn, f"{name} a soliton trajectory", out=out)
        sp_.add_argument("--a", type=float, required=True)
        sp_.add_argument("--b", type=float, required=True)
        sp_.add_argument("--chart", default="taunu", choices=("taunu", "kl"))
        sp_.add_argument("--init", default="0,-1")
        sp_.add_argument("--s-max", type=float, default=20.0)

    # Not required: --config may set --all or --names.
    ve = command(sub, "verify", cmd_verify, "residual-verify catalog entries",
                 out=None, tol=True).add_mutually_exclusive_group()
    ve.add_argument("--all", action="store_true")
    ve.add_argument("--names")

    ca = sub.add_parser("catalog", help="query the exact-solution registry")
    ca = ca.add_subparsers(dest="action", required=True)
    command(ca, "list", cmd_catalog_list, "list the registry")
    command(ca, "show", cmd_catalog_show,
            "show one entry").add_argument("name")
    ln = command(ca, "lengths", cmd_catalog_lengths,
                 "length-vs-time series", out=None)
    ln.add_argument("--points", type=int, default=50)
    which = ln.add_mutually_exclusive_group()
    which.add_argument("name", nargs="?")
    which.add_argument("--all", action="store_true")

    iv = sub.add_parser("invariant", help="invariant-curve tools")
    iv = iv.add_subparsers(dest="action", required=True)
    for action, out in (("make", "out"), ("check", None)):
        ip = command(iv, action, cmd_invariant, f"{action} an invariant curve",
                     out=out, tol=action == "check")
        ip.add_argument("--kind", required=True,
                        choices=[k.value for k in invariants.InvariantKind])
        ip.add_argument("--params", help="JSON dict of kind parameters")
        ip.add_argument("--span", type=float, nargs=2, default=(0.1, 8.0))
        ip.add_argument("--n", type=int, default=20001)
    ip.add_argument("--t-probe", default="0.1,0.5,1.0")  # ip is check's
    ip.add_argument("--probe-fraction", type=float, nargs=2,
                    default=(0.15, 0.85))

    pl = command(sub, "plot", cmd_plot, "overlay curve CSVs as SVG")
    pl.add_argument("csv", nargs="+")
    pl.add_argument("--out-file", default="plot.svg")
    return ap


def _config_value(action, val):
    """A --config value as the option would parse it from the command line."""
    def one(v):
        text = v if isinstance(v, str) else json.dumps(v)
        out = action.type(text) if action.type else text
        if action.choices is not None and out not in action.choices:
            raise ValueError(f"not one of {list(action.choices)}")
        return out

    if action.nargs == 0:  # a flag
        if not isinstance(val, bool):
            raise ValueError("expected true or false")
        return val
    if isinstance(action.nargs, int):
        if not isinstance(val, list) or len(val) != action.nargs:
            raise ValueError(f"expected a list of {action.nargs} values")
        return [one(v) for v in val]
    return one(val)


def _apply_config(args):
    """Set the chosen subcommand's options from the --config JSON object."""
    with open(args.config) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise InvalidParams("--config must hold a JSON object")
    options = {a.dest: a for a in args.parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key, val in values.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise InvalidParams(
                f"--config key {key!r} is not an option of "
                f"{args.parser.prog.partition(' ')[2]}; "
                f"expected one of {sorted(options)}")
        try:
            setattr(args, action.dest, _config_value(action, val))
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"--config key {key!r} has a bad value "
                                f"{val!r}: {exc}") from None
    for group in args.parser._mutually_exclusive_groups:
        given = " and ".join(a.dest for a in group._group_actions
                             if getattr(args, a.dest) != a.default)
        if " and " in given:
            raise InvalidParams(f"--config: {given} exclude each other")


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # in the words of the command that refuses them
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.config:
            _apply_config(args)
        return args.func(args)
    except UnknownSolution as exc:
        print(f"UnknownSolution: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (InvalidParams, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MinkflowError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
