"""Run one heawood benchmark workload and print its metrics.

    python3 perfbench/run.py --workload count --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there and nowhere else.  Workloads: count, construct, structure,
defining (see ``perfbench/README.md``).  With ``--trace 0`` the last line
of stdout is the end-to-end result, with ``--trace 1`` the per-layer one;
the line before it is a JSON report with the environment, the seed, the
tail percentile and sample count, and any failed checks.  The exit status
is 0 when a result was printed and non-zero, with no result, when the
package or the arguments are not usable.
"""

from __future__ import annotations

from time import perf_counter

SCRIPT_START = perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("count", "construct", "structure", "defining")
# Setup is timed in this process and in this many fresh child processes,
# run one at a time between rounds and spread over the run, so that the
# samples see the machine at different moments; setup_s is the median.
SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 60


def _import_heawood():
    """Import the package from ``ROOT/src``, or exit if it is not there."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import heawood
    except ImportError as exc:
        sys.exit(f"error: cannot import heawood from {src}: {exc}")
    if Path(heawood.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: heawood was imported from {heawood.__file__}, not from {src}")
    return heawood


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_setup_s(args: argparse.Namespace) -> float:
    """Setup time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.exit(f"error: setup child failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _environment(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heawood").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    # A setup sample runs from the first line of this script (stdlib imports
    # and argument parsing included) to the first timed op.
    _import_heawood()
    from perfbench import harness

    prepared = harness.prepare(args.workload, args.seed)
    setup_s = perf_counter() - SCRIPT_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s]

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = harness.measure_traced(prepared, args.seconds, workdir)
        else:
            result = harness.measure(
                prepared, args.seconds, workdir,
                pause=lambda: setup_samples.append(_child_setup_s(args)),
                pauses=SETUP_CHILDREN)
    finally:
        (workdir / "op.graph").unlink(missing_ok=True)
        if not args.trace:
            workdir.rmdir()

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
    tally = result["tally"]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(args.seed),
        "error_rate": tally.failed / tally.attempted,
        "first_failure": tally.first_problems,
        "setup_samples_s": setup_samples,
        **result["details"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
