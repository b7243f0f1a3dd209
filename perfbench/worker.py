"""In-process executor, run as a child of ``run.py``.

    python worker.py SPEC.json RESULT.json

SPEC names the workload, its operations, a warm-up round at the
smallest sizes (run first, untimed) and the mode:

* ``atlas``: timed passes over the paper-atlas operations until the
  next pass would end after ``seconds``; always at least one pass.
  Operations with an ``argv`` are CLI commands, the rest atlas groups.
* ``trace``: every operation twice in a row, once traced and once with
  the span wrappers disabled, alternating which goes first, so that the
  machine's drift in speed cancels out of the tracing overhead.  CLI
  commands run through ``minkflow.cli.main(argv)``.

The working directory is the run's work directory; every output
lands there.  RESULT gets one record per operation and, when traced,
the spans.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import gates
import spans


def _cli_op(cli, op):
    gates.clear_outputs(op, ".")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op["argv"])
    wall = time.perf_counter() - start
    gates.check(op, rc, out.getvalue(), err.getvalue(), ".")
    return wall, gates.output_digest(op, out.getvalue(), ".")


def _atlas_op(atlas, op):
    start = time.perf_counter()
    result = atlas.run(op)
    wall = time.perf_counter() - start
    atlas.check(op, result)
    return wall, None


def _record(execute, op, tracer=None, index=None):
    """Run one operation; its failure is part of the record."""
    rec = {"name": op["name"], "wall": None, "error": None, "digest": None}
    if tracer is not None:
        tracer.op, tracer.enabled = index, True
    try:
        rec["wall"], rec["digest"] = execute(op)
    except Exception as exc:   # an operation failure is a result
        rec["error"] = "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
    finally:
        if tracer is not None:
            tracer.enabled = False
    return rec


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    ops = spec["ops"]
    import minkflow.cli as cli
    if spec["workload"] == "paper-atlas":
        import atlas

    def execute(op):
        return _cli_op(cli, op) if "argv" in op else _atlas_op(atlas, op)
    for op in spec["warmup"]:
        _record(execute, op)
    result = {}
    if spec["mode"] == "atlas":
        passes, start = [], time.perf_counter()
        while True:
            t = time.perf_counter()
            passes.append([_record(execute, op) for op in ops])
            took = time.perf_counter() - t
            if time.perf_counter() - start + took > spec["seconds"]:
                break
        result["rounds"] = passes
    else:
        tracer = spans.Tracer()
        tracer.install()
        untraced, traced = [], []
        for i, op in enumerate(ops):
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                if on:
                    traced.append(_record(execute, op, tracer, i))
                else:
                    untraced.append(_record(execute, op))
        tracer.uninstall()
        result.update(rounds=[untraced, traced], spans=tracer.spans,
                      self_times=tracer.self_times())
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
