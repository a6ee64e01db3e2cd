"""indexcast benchmark: one workload, timed or traced, from this checkout.

Usage (from the root of the checkout):

    python3 bench/run.py --workload arima_protocol --seed 1 --seconds 25 --trace 0

Workloads are ``arima_protocol``, ``hw_protocol`` and ``cli_io`` (see
``workloads.py`` for why each exists); ``--workload all`` runs each of
them timed and then traced.  With ``--trace 0`` the run takes
calls for ``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it runs the workload's fixed traced plan and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json.
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything runs serially in this process (``run_rolling(workers=1)``).
The process pool is left out on purpose: on a 2-core machine it supports
no scaling claim.  The tier-1 suite's wall time is not a metric either:
it spread over 54-93 s, much wider than any usable bound.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set for this process and its children only, before
# numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
SETUP_SAMPLES = 5


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_samples(count: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters doing ``import indexcast.cli``: raw and nominal s.

    The host-speed kernel runs between imports, never during one, so that
    it does not compete with the child for the machine.
    """
    host = hostspeed.Sampler()
    host.sample(repeat=3)
    intervals = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import indexcast.cli"],
                       env=child_env(), cwd=ROOT, check=True)
        intervals.append((start, time.perf_counter()))
        host.sample(repeat=3)
    return ([end - start for start, end in intervals],
            [host.nominal(start, end, 0.0)[0] for start, end in intervals])


def scipy_import_share() -> float:
    import spans
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import indexcast.cli"],
                          env=child_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True)
    return spans.import_share(done.stderr)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Result:
    """What a pass over a plan did: per-call intervals, ops and failures."""

    def __init__(self):
        self.calls: list[tuple[float, float, float]] = []  # start, end, CPU s
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.host = hostspeed.Sampler()

    def raw_times(self) -> list[float]:
        return [end - start for start, end, _ in self.calls]

    def nominal(self) -> tuple[list[float], float]:
        """Call times and total CPU at nominal host speed (see hostspeed.py)."""
        pairs = [self.host.nominal(*call) for call in self.calls]
        return [wall for wall, _ in pairs], sum(cpu for _, cpu in pairs)


def execute(units, seconds=None, tracer=None, after_first=None) -> Result:
    """Run units of calls in order; with ``seconds``, no unit starts once
    that much wall time has passed.  A call that raises or fails its check
    counts all of its operations as failed.

    Untraced passes sample the host speed from a timer, also inside calls;
    traced passes only between calls, so that no span holds kernel time.
    """
    result = Result()
    started = time.perf_counter()
    index = -1
    with contextlib.ExitStack() as stack:
        if tracer is None:
            stack.enter_context(result.host.periodic())
        else:
            result.host.sample()
        for unit in units:
            if seconds is not None and time.perf_counter() - started >= seconds:
                break
            for call in unit:
                index += 1
                run_call(call, index, result, tracer)
                if index == 0 and after_first is not None:
                    after_first()
                if tracer is not None and (time.perf_counter() - result.host.ends[-1]
                                           >= hostspeed.INTERVAL_S):
                    result.host.sample()
        if tracer is not None:
            result.host.sample()
    return result


def run_call(call, index, result, tracer) -> None:
    """Time one call, then check its output; a failure is counted, not fatal."""
    if tracer is not None:
        tracer.request = index
    error = None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        output = call.run()
    except Exception as exc:
        error = f"{call.kind}: {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    result.calls.append((t0, t1, cpu_seconds() - cpu0))
    if error is None:
        try:
            result.digest.update(call.check(output))
        except Exception as exc:  # malformed output can break the parsing too
            error = f"{call.kind}: check failed: {type(exc).__name__}: {exc}"
    result.attempted += call.ops
    if error is None:
        result.completed += call.ops
    else:
        result.failed += call.ops
        result.errors.append(error)


def report_errors(result: Result) -> None:
    for error in result.errors[:5]:
        sys.stderr.write(f"bench: {error}\n")
    if len(result.errors) > 5:
        sys.stderr.write(f"bench: ... {len(result.errors) - 5} more failed calls\n")


def timed_run(args, workdir) -> tuple[Result, dict]:
    """Untraced calls for ``--seconds``; times at nominal host speed.

    Prints every end-to-end figure with its unit and sample count, also
    those BENCHMARK.json does not gate: ``op_s.p50`` mixes call kinds of
    very different cost on hw_protocol, ``op_s.p90`` needs 100 calls, and
    ``failed_share`` is 0 when all is well (the result line carries it).
    """
    from workloads import plan
    setup_raw, setup = setup_samples(SETUP_SAMPLES)
    result = execute(plan(args.workload, args.seed, ROOT, workdir, traced=False),
                     seconds=args.seconds)
    times, cpu = result.nominal()
    raw = result.raw_times()
    raw_cpu = sum(c for _, _, c in result.calls)
    ops, n = max(result.attempted, 1), len(times)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": result.completed / sum(times),
        "op_s.p50": statistics.median(times),
        "cpu_s_per_op": cpu / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if n >= 100:
        values["op_s.p90"] = statistics.quantiles(times, n=10)[8]
    values["failed_share"] = result.failed / ops
    kernel = result.host.kernel_s
    print(f"  host speed: kernel {min(kernel) * 1e3:.2f}..{max(kernel) * 1e3:.2f} ms "
          f"in {len(kernel)} samples; times are at the speed where it takes "
          f"{hostspeed.NOMINAL_S * 1e3:g} ms")
    rows = [
        ("setup_s", "s", f"median of {len(setup)} fresh imports; "
                         f"raw {statistics.median(setup_raw):.4g} s"),
        ("ops_per_s", "1/s", f"{result.completed} ops in {sum(times):.3f} s of calls; "
                             f"raw {result.completed / sum(raw):.4g}/s"),
        ("op_s.p50", "s", f"n={n} calls; raw {statistics.median(raw):.4g} s"),
        ("op_s.p90", "s", f"n={n} calls"),
        ("cpu_s_per_op", "s", f"{cpu:.3f} s CPU over {ops} ops; raw {raw_cpu / ops:.4g} s"),
        ("peak_rss_mb", "MB", "max RSS of this process"),
        ("failed_share", "ratio", f"{result.failed} of {result.attempted} ops"),
    ]
    for name, unit, note in rows:
        shown = f"{values[name]:>12.6g}" if name in values else f"{'omitted':>12}"
        if name not in values:
            note = f"n={n} calls, fewer than 100"
        print(f"  {name:<14} {shown} {unit:<5} ({note})")
    print(f"  digest sha256:{result.digest.hexdigest()[:32]} over {n} calls")
    return result, values


def traced_run(args, spec, workdir) -> tuple[Result, dict, bool]:
    """Traced pass, untraced replay, traced replay of the first call."""
    import spans
    from workloads import plan

    def fresh_plan():
        return plan(args.workload, args.seed, ROOT, workdir, traced=True)

    # plans read and write their inputs when built, so build them untraced
    tracer = spans.Tracer()
    first_counts = {}
    units = fresh_plan()
    with tracer.installed():
        result = execute(units, tracer=tracer,
                         after_first=lambda: first_counts.update(tracer.counters()))
    untraced = execute(fresh_plan())
    again = spans.Tracer()
    first_call = [next(fresh_plan())[:1]]
    with again.installed():
        execute(first_call, tracer=again)
    repeated = again.counters() == first_counts
    if not repeated:
        sys.stderr.write("bench: DETERMINISTIC COUNTERS DID NOT REPEAT\n"
                         f"bench:   first pass {sorted(first_counts.items())}\n"
                         f"bench:   replay     {sorted(again.counters().items())}\n")
    values = tracer.layer_metrics()
    values["setup.scipy_import_share"] = scipy_import_share()
    traced_s, untraced_s = sum(result.nominal()[0]), sum(untraced.nominal()[0])
    values["trace.overhead_s"] = traced_s - untraced_s
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    for name in spec:
        print(f"  {name:<34} {values[name]:>14.6g} {spec[name]}")
    print(f"  traced {traced_s:.3f} s, untraced {untraced_s:.3f} s at nominal speed over "
          f"{len(result.calls)} calls; {len(tracer.spans)} spans in "
          f"{trace_file.relative_to(ROOT)}")
    print(f"  deterministic counters repeat: {'yes' if repeated else 'NO'} "
          f"(first call replayed)")
    print(f"  digest sha256:{result.digest.hexdigest()[:32]} over the fixed plan")
    return result, values, repeated


def run_all(names, args) -> int:
    """Every workload, timed then traced, each in a fresh interpreter."""
    worst = 0
    for name in names:
        for trace in (0, 1):
            done = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds",
                                   str(args.seconds), "--trace", str(trace)], cwd=ROOT)
            worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "indexcast" / "__init__.py").is_file():
        return fail(f"no indexcast sources under {SRC}")
    if not (ROOT / "data").is_dir():
        return fail(f"no fixture directory {ROOT / 'data'}")
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec_file["workloads"]]
    if args.workload == "all":
        return run_all(names, args)
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}")
    group = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in spec_file[group]}

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import indexcast
    if Path(indexcast.__file__).resolve().parent != SRC / "indexcast":
        return fail(f"imported indexcast from {indexcast.__file__}, not {SRC}")

    print(f"indexcast benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} git={git_sha()}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            result, values, repeated = traced_run(args, spec, workdir)
        else:
            result, values = timed_run(args, workdir)
            repeated = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_errors(result)
    missing = set(spec) - set(values)
    if missing:
        return fail(f"metrics not computed: {sorted(missing)}")
    print(json.dumps({
        "correct": result.failed == 0 and repeated,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec.items()},
    }), flush=True)
    return 0 if repeated else 1


if __name__ == "__main__":
    sys.exit(main())
