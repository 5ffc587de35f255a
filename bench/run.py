"""Benchmark of the kgconst CLI: cold-process `verify all` at 50 and 200 digits,
and the non-verify commands (`trace`, `compute`), with a traced per-layer run.

Usage, from the repository root::

    python3 bench/run.py --workload verify-50 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload explore --seed 1 --seconds 30 --trace 1

Every command runs as a fresh ``python -m kgconst.cli`` process, one at a
time (a closed loop with one client), because a CLI user pays the cold start
on every call.  One *pass* runs every command of the workload once; passes
repeat until ``--seconds`` have elapsed and the metrics are medians over
passes.  With ``--trace 1`` passes alternate between untraced commands and
commands run under ``bench/traced.py``, and the per-layer metrics are
reported instead of the end-to-end ones.

Metric names, units and the workload list come from BENCHMARK.json at the
repository root.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it repeat the
metrics for reading.  Only processes this script starts are timed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import mpmath

from checks import WORKLOADS, OpResult, check_op, references, summarize_checks
from traced import LAYERS, TRACE_PREFIX, op_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"
PYCACHE = ROOT / ".bench_build" / "pycache"
# a run must end within 180 s; ops still running at this point are killed
HARD_LIMIT_S = 170.0
SETUP_SAMPLES = 21


@dataclass
class Proc:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    results: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def run_child(argv, env, timeout_s) -> Proc:
    """Run argv to completion (or kill it at timeout_s) and reap it with wait4,
    which gives the CPU time and peak RSS of this child alone."""
    out, err = [], []
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    readers = [threading.Thread(target=lambda s=s, b=b: b.append(s.read()))
               for s, b in ((proc.stdout, out), (proc.stderr, err))]
    for t in readers:
        t.start()
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(max(timeout_s, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    return Proc(proc.returncode, out[0].decode(), err[0].decode(), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                killed.is_set() and wall >= timeout_s)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # children import from a bytecode cache, as an installed package would,
    # and that cache stays inside the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def check_checkout(env):
    """Warm import of the package under test; also fills its bytecode cache."""
    if not (SRC / "kgconst" / "cli.py").is_file():
        fail(f"no kgconst sources under {SRC}")
    probe = run_child([sys.executable, "-c",
                       "import kgconst.cli, sys; sys.stdout.write(kgconst.cli.__file__)"],
                      env, 60.0)
    if probe.returncode != 0 or Path(probe.stdout).resolve().parent.parent != SRC:
        fail(f"kgconst.cli does not import from {SRC}: {probe.stderr.strip() or probe.stdout}")


def run_pass(ops, traced, env, deadline, refs) -> Pass:
    result = Pass(traced=traced)
    output_bytes = 0
    layers = {}
    for op in ops:
        prefix = [sys.executable, str(TRACED)] if traced else [sys.executable, "-m", "kgconst.cli"]
        timeout = min(op.timeout_s, deadline - time.perf_counter())
        proc = run_child(prefix + list(op.args), env, timeout)
        result.wall_s += proc.wall_s
        result.cpu_s += proc.cpu_s
        result.rss_mb = max(result.rss_mb, proc.rss_mb)
        output_bytes += len(proc.stdout.encode())
        outcome = check_op(op, proc.returncode, proc.stdout, proc.timed_out, refs)
        if traced and not outcome.failed:
            trace_lines = [ln for ln in proc.stderr.splitlines() if ln.startswith(TRACE_PREFIX)]
            if trace_lines:
                for name, value in op_layer_metrics(
                        json.loads(trace_lines[-1][len(TRACE_PREFIX):])).items():
                    layers[name] = layers.get(name, 0.0) + value
            else:
                outcome = OpResult(True, outcome.checks, "traced run wrote no trace")
        if outcome.failed:
            print(f"bench: op {' '.join(op.args)} failed: {outcome.reason}", file=sys.stderr)
        result.results.append(outcome)
    if traced:
        layers["cli.output_bytes"] = output_bytes
        result.layers = layers
    return result


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (SRC / "kgconst").rglob("*.py"))


def pass_layer_metrics(p: Pass) -> dict:
    m = dict(p.layers)
    warm_evals = m.get("quadrature.warm_evals", 0)
    m["quadrature.s_per_eval"] = m.get("quadrature.warm_s", 0.0) / warm_evals if warm_evals else 0.0
    layer_self = sum(m.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    m["trace.accounted_frac"] = (layer_self + m.get("cli.import_s", 0.0)) / p.wall_s
    return m


def layer_metrics(passes, names) -> dict:
    traced = [p for p in passes if p.traced and p.layers]
    plain = [p for p in passes if not p.traced]
    per_pass = [pass_layer_metrics(p) for p in traced]
    metrics = {name: statistics.median(m.get(name, 0.0) for m in per_pass) if per_pass else math.nan
               for name in names}
    if traced and plain:
        metrics["trace.overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                          / statistics.median(p.wall_s for p in plain) - 1)
    metrics["repo.src_lines"] = src_lines()
    attempted, passed, _ = summarize_checks(r for p in traced for r in p.results)
    metrics["fail_frac"] = (attempted - passed) / attempted if attempted else math.nan
    return metrics


def end_to_end_metrics(passes, setup) -> dict:
    attempted, passed, margin = summarize_checks(r for p in passes for r in p.results)
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setup),
        "pass_frac": passed / attempted,
        "digits_margin": margin,
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }


def tail_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def machine_info():
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"mpmath={mpmath.__version__} backend={mpmath.libmp.BACKEND} "
            f"numpy={metadata.version('numpy')}")


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.perf_counter() + HARD_LIMIT_S
    env = child_env()
    check_checkout(env)
    ops = WORKLOADS[args.workload]
    refs = references(ops)
    setup = []

    def sample_setup(fraction_done):
        # set-up samples are spread over the run, so that a short burst of
        # load from outside cannot move their median
        while not args.trace and len(setup) < math.ceil(SETUP_SAMPLES * fraction_done):
            setup.append(run_child([sys.executable, "-c", "import kgconst.cli"], env, 60.0).wall_s)

    # the seed fixes the order of the commands within each pass
    rng = random.Random(args.seed)
    passes = []
    measure_start = time.perf_counter()
    # a traced run needs one untraced and one traced pass at least
    min_passes = 2 if args.trace else 1
    while len(passes) < min_passes or time.perf_counter() - measure_start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(rng.sample(ops, len(ops)), traced, env, deadline, refs))
        if time.perf_counter() >= deadline:
            break
        sample_setup(min(1.0, (time.perf_counter() - measure_start) / args.seconds))
    sample_setup(1.0)

    if args.trace:
        wanted = spec["per_layer"]
        values = layer_metrics(passes, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        values = end_to_end_metrics(passes, setup)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(r.failed for p in passes for r in p.results)

    print(f"machine: {machine_info()}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{attempted} ops, {failed} failed")
    walls = [p.wall_s for p in passes if not p.traced]
    tail = tail_percentile(walls)
    if tail:
        print(f"wall_s p{tail[0]:.0f} = {tail[1]:.4f} s over {len(walls)} passes")
    else:
        print(f"wall_s: {len(walls)} untraced passes, too few for a tail percentile")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        print(f"{m['name']} = {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
