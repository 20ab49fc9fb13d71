"""filterlab benchmark.

Run from the root of a filterlab checkout:

    python3 perfbench/run.py --workload paper --seed 7 --seconds 35 --trace 0

filterlab is imported from ./src of that checkout, never from an installed
copy. The run builds the workload's inputs from the seed, repeats the
workload's timed calls while the next repetition still fits in --seconds (at
least once), and checks every output. With --trace 1 it makes one untraced
repetition and then one traced repetition, and reports per-layer metrics.

Standard output ends with two JSON lines: the environment and run details,
then the result, with exactly the keys correct, attempted, failed, metrics.
The metric names, units and bounds are those of BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
# Environment variables that change how many threads numpy's BLAS or the
# gap report use; recorded as found, never set here.
THREAD_VARIABLES = (
    "FILTERLAB_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# One set-up in a fresh interpreter, as a user's process pays it: import
# filterlab and build the inputs. setup_s is the median of SETUP_REPEATS.
_SETUP_PROBE = """
import sys, tempfile, time
start = time.perf_counter()
src, bench, name, seed, work = sys.argv[1:6]
sys.path[:0] = [src, bench]
import workloads
with tempfile.TemporaryDirectory(dir=work) as d:
    workloads.WORKLOADS[name].setup(int(seed), workloads.DEFAULT_SIZES[name], d)
    print(time.perf_counter() - start)
"""


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _config(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchmarkError(f"{path} not found; run from the checkout root")
    with open(path) as fh:
        return json.load(fh)


def _source_root(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "filterlab", "__init__.py")):
        raise BenchmarkError(f"no filterlab sources under {src}")
    return src


def _last_frames() -> str:
    """The innermost frame and message of the exception being handled."""
    return " | ".join(traceback.format_exc().strip().splitlines()[-3:])


def _run_once(workload, inputs, size, seed, workdir, tag, reference):
    """Run the workload's calls once; returns the wall seconds and, for every
    call, the list of problems found (empty when the call succeeded)."""
    out = os.path.join(workdir, tag)
    os.makedirs(out)
    calls = workload.calls(inputs, out)
    returns, problems = {}, {}
    start = time.perf_counter()
    for label, call in calls:
        try:
            returns[label] = call(returns)
        except Exception:  # a failed call is counted; the run goes on
            problems[label] = [_last_frames()]
    wall = time.perf_counter() - start
    try:
        problems.update(workload.check(inputs, out, returns, seed, size, reference))
    except Exception:  # unreadable or missing outputs fail the check
        for label in returns:
            problems.setdefault(label, []).append(f"check raised {_last_frames()}")
    shutil.rmtree(out)
    return wall, {label: problems.get(label, []) for label, _ in calls}


def _setup_probes(src: str, name: str, seed: int, workdir: str, count: int) -> list[float]:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, src, BENCH_DIR, name, str(seed), workdir],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _line_count(src: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirs, files in os.walk(src):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _commit(root: str) -> str | None:
    """The checked-out commit, read from .git without starting git; None
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def _library_config(module) -> dict | None:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError, AttributeError):
        return None
    return {k: {"name": v.get("name"), "version": v.get("version")} for k, v in deps.items()}


def environment(root: str, src: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_build": _library_config(numpy),
        "scipy_build": _library_config(scipy),
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "src_lines": _line_count(src),
        "src_sha256": _source_digest(src),
        "commit": _commit(root),
    }


def run(name, seed, seconds, trace, root=None, size=None) -> tuple[dict, dict]:
    """Run one workload; returns (result, details). ``size`` overrides the
    workload's default sizes; reference arrays are compared only at the
    defaults."""
    root = os.path.abspath(root or os.getcwd())
    config = _config(root)
    if name not in {w["name"] for w in config["workloads"]}:
        raise BenchmarkError(f"unknown workload {name!r}")
    src = _source_root(root)
    for path in (BENCH_DIR, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        return _run_in(name, seed, seconds, trace, root, src, size, config, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run still uses it
            pass


def _run_in(name, seed, seconds, trace, root, src, size, config, workdir):
    import workloads

    import filterlab

    if not os.path.abspath(filterlab.__file__).startswith(src + os.sep):
        raise BenchmarkError(f"filterlab imported from {filterlab.__file__}, not {src}")
    workload = workloads.WORKLOADS[name]
    defaults = size is None
    size = workloads.DEFAULT_SIZES[name] if defaults else size
    inputs = workload.setup(seed, size, workdir)
    setup_times = _setup_probes(src, name, seed, workdir, SETUP_REPEATS)
    reference = workloads.load_reference() if defaults else None

    walls, problems, attempted, failed = [], {}, 0, 0

    def once(tag):
        nonlocal attempted, failed
        wall, found = _run_once(workload, inputs, size, seed, workdir, tag, reference)
        attempted += len(found)
        failed += sum(1 for p in found.values() if p)
        for label, p in found.items():
            if p:
                problems.setdefault(label, []).extend(p)
        return wall

    details = {"workload": name, "seed": seed, "size": size}
    if trace:
        import spans

        untraced = once("untraced")
        with spans.Tracer() as tracer:
            traced = once("traced")
        totals = spans.layer_totals(tracer.spans)
        metrics = {}
        for m in config["per_layer"]:
            if m["name"] == "trace.overhead_s":
                value = traced - untraced
            else:
                value = spans.layer_metric(totals, m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        details.update(untraced_wall_s=untraced, traced_wall_s=traced)
    else:
        loop_start = time.perf_counter()
        while True:
            walls.append(once(f"rep{len(walls)}"))
            elapsed = time.perf_counter() - loop_start
            if elapsed + statistics.median(walls) > seconds:
                break
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in config["end_to_end"]
        }
        details.update(walls_s=walls)
    details.update(setup_s=setup_times, problems=problems, environment=environment(root, src))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="filterlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
