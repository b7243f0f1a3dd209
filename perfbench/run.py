"""minkflow benchmark: end-to-end and per-module timings with output gates.

Run from the root of a minkflow checkout:

    python3 perfbench/run.py --workload cli-cold --seed 0 --seconds 55 --trace 0

Workloads (one client, closed loop, one child process at a time):

* ``cli-cold``: README commands, each in a fresh ``python -m minkflow.cli``.
* ``paper-atlas``: warm in-process passes over the paper's non-CLI
  results and a frozen-boundary ``evolve`` command, in one worker child;
  the traced run adds the README ``evolve`` command.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` is a separate run that records spans around calls
into each module's public functions and reports the per-module metrics.
Every operation is checked against a known answer; a failed gate, a
wrong exit code or a byte difference between identical commands counts
as a failed operation.  The last line of stdout is the JSON result; the
line before it holds the run's details (fingerprint, failure ratio,
median and tail operation time, tail percentile).  ``--smoke`` runs the
smallest sizes.  Nothing is written outside ``.perfbench/`` in the
current directory.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gates
import workloads
from spans import SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT = 150.0
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# Every per-module metric, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "import.total_s": "s", "import.minkflow_self_s": "s",
    "import.catalog_self_s": "s", "import.sympy_s": "s",
    "import.scipy_integrate_s": "s",
    "cli.commands": "count", "cli.self_s": "s", "cli.failed": "count",
    "flow.evolve.calls": "count", "flow.evolve.nodes": "count",
    "flow.evolve.s": "s", "flow.stability_dt.calls": "count",
    "flow.residual.calls": "count", "flow.residual.s": "s",
    "flow.failed": "count",
    "catalog.length_vs_time.calls": "count",
    "catalog.length_vs_time.points": "count",
    "catalog.length_vs_time.s": "s",
    "catalog.curvature_profile_check.calls": "count",
    "catalog.curvature_profile_check.s": "s",
    "catalog.verify_all.s": "s", "catalog.failed": "count",
    "selfsim.integrate_phase.calls": "count",
    "selfsim.integrate_phase.samples": "count",
    "selfsim.integrate_phase.explicit_s": "s",
    "selfsim.integrate_phase.stiff_s": "s",
    "selfsim.integrate_graph.s": "s", "selfsim.integrate_lightcone.s": "s",
    "selfsim.screw_translate_curve.calls": "count",
    "selfsim.screw_translate_curve.nodes": "count",
    "selfsim.screw_translate_curve.s": "s", "selfsim.classify.s": "s",
    "selfsim.conserved_drift.s": "s", "selfsim.reconstruct.s": "s",
    "selfsim.failed": "count",
    "invariants.make_invariant_curve.s": "s",
    "invariants.check_invariance.calls": "count",
    "invariants.check_invariance.probes": "count",
    "invariants.check_invariance.s": "s",
    "geometry.write_curve_csv.calls": "count",
    "geometry.write_curve_csv.bytes": "bytes",
    "geometry.write_curve_csv.s": "s",
    "geometry.read_curve_csv.bytes": "bytes",
    "geometry.read_curve_csv.s": "s", "svg.render.s": "s",
    "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
    "dominance.import_share": "ratio",
    "dominance.flow_evolve_share": "ratio",
}


class Run:
    """One benchmark run: its checkout, work directory and children."""

    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.work = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"

    def child(self, argv):
        """Run a Python child in the work directory; (wall, rc, out, err)."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=self.work,
                              env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        wall = time.perf_counter() - start
        return wall, proc.returncode, proc.stdout, proc.stderr

    def setup_s(self):
        """Median wall time of ``import minkflow.cli`` in a fresh child."""
        walls = []
        for _ in range(SETUP_REPEATS):
            wall, rc, _out, err = self.child(["-c", "import minkflow.cli"])
            if rc != 0:
                raise SystemExit(f"import minkflow.cli failed:\n{err}")
            walls.append(wall)
        return statistics.median(walls)

    def cold_rounds(self, ops):
        """Whole rounds of cold CLI commands until the next would overrun."""
        records, seen, start = [], {}, time.perf_counter()
        while True:
            t = time.perf_counter()
            for op in ops:
                records.append(self.cold_op(op, seen))
            took = time.perf_counter() - t
            if time.perf_counter() - start + took > self.args.seconds:
                return records

    def cold_op(self, op, seen):
        gates.clear_outputs(op, self.work)
        rec = {"name": op["name"], "wall": None, "error": None}
        try:
            rec["wall"], rc, out, err = self.child(
                ["-m", "minkflow.cli", *op["argv"]])
            gates.check(op, rc, out, err, self.work)
            _same_bytes(op, gates.output_digest(op, out, self.work), seen)
        except Exception as exc:   # an operation failure is a result
            rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec

    def worker(self, mode, ops):
        """Run ops in one worker child, after a warm-up at the smallest sizes."""
        warmup = workloads.build(self.args.workload, self.args.seed, smoke=True)
        spec = {"workload": self.args.workload, "mode": mode, "ops": ops,
                "warmup": warmup, "seconds": self.args.seconds}
        spec_path = os.path.join(self.work, "spec.json")
        result_path = os.path.join(self.work, "result.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        _wall, rc, _out, err = self.child(
            [os.path.join(HERE, "worker.py"), spec_path, result_path])
        if rc != 0:
            raise SystemExit(f"worker failed (exit {rc}):\n{err}")
        with open(result_path) as fh:
            return json.load(fh)


def _check_repeats(ops, records):
    """Fail each in-process record whose bytes differ from its repeat's."""
    seen = {}
    for op, rec in zip(ops, records):
        if rec["digest"] is not None and not rec["error"]:
            try:
                _same_bytes(op, rec["digest"], seen)
            except gates.GateError as exc:
                rec["error"] = str(exc)


def _same_bytes(op, digest, seen):
    key = json.dumps(op["argv"])
    if seen.setdefault(key, digest) != digest:
        raise gates.GateError(f"{op['name']}: output bytes differ from the "
                              "identical command earlier in this run")


def tail(walls):
    """Highest percentile with min(10, n // 20) samples beyond it.

    Ten samples beyond is the target; a run with fewer than 200
    operations keeps one sample beyond per twenty, so a small run
    reports its maximum rather than a value below its median.
    """
    ordered = sorted(walls)
    beyond = min(10, len(ordered) // 20)
    idx = len(ordered) - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), beyond


def end_to_end(run, ops):
    setup = run.setup_s()
    if run.args.workload in workloads.COLD_WORKLOADS:
        records = run.cold_rounds(ops)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        result = run.worker("atlas", ops)
        records = [r for rnd in result["rounds"] for r in rnd]
        rss_kb = result["maxrss_kb"]
        _check_repeats(ops * len(result["rounds"]), records)
    walls = [r["wall"] for r in records if r["wall"] is not None]
    failed = [r for r in records if r["error"]]
    if not walls:
        raise SystemExit("no operation completed: " + failed[0]["error"])
    op_tail, pct, beyond = tail(walls)
    metrics = {
        "setup_s": setup,
        "ops_per_s": (len(records) - len(failed)) / sum(walls),
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }
    # The median and the tail swing with the machine's speed far more
    # than the summed time does (see README.md), so they are reported
    # here and not as bounded metrics.
    info = {"op_p50_s": statistics.median(walls), "op_tail_s": op_tail,
            "op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
            "op_samples": len(walls)}
    return records, failed, metrics, END_TO_END_UNITS, info


def parse_importtime(stderr):
    """Self and cumulative seconds per module from ``-X importtime``."""
    rows = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if self_us.strip().isdigit():
            rows.setdefault(name.strip(), (int(self_us) / 1e6,
                                           int(cum_us) / 1e6))
    return rows


def import_metrics(run):
    _wall, rc, _out, err = run.child(["-X", "importtime", "-c",
                                      "import minkflow.cli"])
    if rc != 0:
        raise SystemExit(f"import minkflow.cli failed:\n{err}")
    rows = parse_importtime(err)
    return {
        "import.total_s": rows["minkflow.cli"][1],
        "import.minkflow_self_s": sum(s for name, (s, _c) in rows.items()
                                      if name.split(".")[0] == "minkflow"),
        "import.catalog_self_s": rows.get("minkflow.catalog", (0.0, 0.0))[0],
        "import.sympy_s": rows.get("sympy", (0.0, 0.0))[1],
        "import.scipy_integrate_s": rows.get("scipy.integrate",
                                             (0.0, 0.0))[1],
    }


def span_metrics(result, ops):
    """Per-module counts, self times and failures from the traced round."""
    m = {name: 0 for name in PER_LAYER_UNITS
         if not name.startswith(("import.", "trace.", "dominance."))}
    spans = result["spans"]
    for span, own in zip(spans, result["self_times"]):
        name, _start, _end, parent, _op, count, error = span
        base, kind = name, None
        if name.startswith("selfsim.integrate_phase."):
            base, kind = name.rsplit(".", 1)
        mod, fn = base.split(".", 1)
        if base == "cli.main":
            time_key, calls_key = "cli.self_s", "cli.commands"
        else:
            time_key = f"{base}.{kind}_s" if kind else f"{base}.s"
            calls_key = f"{base}.calls"
        for key, value in ((time_key, own), (calls_key, 1)):
            if key in m:
                m[key] += value
        counter = SPANS[mod][fn]
        if counter and f"{base}.{counter[0]}" in m:
            m[f"{base}.{counter[0]}"] += count
        # An exception another module catches is control flow; one that
        # reaches the CLI layer or the benchmark is a failure.
        escaped = parent is None or spans[parent][0] == "cli.main"
        if error and escaped and f"{mod}.failed" in m:
            m[f"{mod}.failed"] += 1
    m["cli.failed"] = sum(1 for op, r in zip(ops, result["rounds"][1])
                          if "argv" in op and r["error"])
    return m


def per_layer(run, ops):
    imports = import_metrics(run)
    result = run.worker("trace", ops)
    untraced, traced = result["rounds"]
    records = untraced + traced
    _check_repeats(ops + ops, records)
    failed = [r for r in records if r["error"]]
    metrics = dict(imports, **span_metrics(result, ops))

    def busy(rnd):
        return sum(r["wall"] for r in rnd if r["wall"] is not None)

    def rate(rnd):
        return sum(1 for r in rnd if not r["error"]) / busy(rnd)

    metrics["trace.untraced_ops_per_s"] = rate(untraced)
    metrics["trace.traced_ops_per_s"] = rate(traced)
    metrics["trace.overhead_ops_per_s"] = (metrics["trace.traced_ops_per_s"]
                                           - metrics["trace.untraced_ops_per_s"])
    # Wall time as the user sees it: every command of a cold workload
    # pays the import.
    is_cold = run.args.workload in workloads.COLD_WORKLOADS
    per_cmd = imports["import.total_s"] if is_cold else 0.0
    wall = len(ops) * per_cmd + busy(traced)
    metrics["dominance.import_share"] = len(ops) * per_cmd / wall
    metrics["dominance.flow_evolve_share"] = metrics["flow.evolve.s"] / wall
    flow_by_op = {}
    for span, own in zip(result["spans"], result["self_times"]):
        if span[0] == "flow.evolve":
            flow_by_op[span[4]] = flow_by_op.get(span[4], 0.0) + own
    trace_path = os.path.join(
        run.root, ".perfbench",
        f"trace-{run.args.workload}-seed{run.args.seed}.json")
    with open(trace_path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "op",
                               "count", "error"],
                   "ops": [op["name"] for op in ops],
                   "spans": result["spans"]}, fh)
    info = {"trace_file": os.path.relpath(trace_path, run.root),
            "flow_evolve_share_by_op": {
                f"{i}:{ops[i]['name']}": t / (per_cmd + traced[i]["wall"])
                for i, t in flow_by_op.items() if traced[i]["wall"]}}
    return records, failed, metrics, PER_LAYER_UNITS, info


def fingerprint(root):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    fp = {"nproc": os.cpu_count(), "cpu": cpu,
          "python": platform.python_version(), "commit": None, "dirty": None}
    for lib in ("numpy", "scipy", "sympy"):
        fp[lib] = importlib.metadata.version(lib)
    if os.path.isdir(os.path.join(root, ".git")):
        git = ["git", "-C", root]
        fp["commit"] = subprocess.run(git + ["rev-parse", "HEAD"],
                                      capture_output=True,
                                      text=True).stdout.strip()
        fp["dirty"] = bool(subprocess.run(
            git + ["status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True).stdout.strip())
    return fp


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes, for the self-check")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "minkflow", "cli.py")):
        print("run from the root of a minkflow checkout "
              "(src/minkflow/cli.py not found)", file=sys.stderr)
        return 2
    run = Run(root, args)
    os.makedirs(run.work)
    try:
        ops = workloads.build(args.workload, args.seed, args.smoke,
                              args.trace)
        measure = per_layer if args.trace else end_to_end
        records, failed, metrics, units, info = measure(run, ops)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                fail_ratio=len(failed) / len(records),
                failures=[f"{r['name']}: {r['error']}" for r in failed],
                fingerprint=fingerprint(root))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed, "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
