"""Run one revrank benchmark workload and print its metrics.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Each run happens in a fresh subprocess (``workload.py``) that imports this
checkout's ``src/``, with BLAS and OpenMP threads capped, so that
``peak_rss_mb`` belongs to the run alone.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a traced
run.  The last line of standard output is the result as one JSON object.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# A run measures for --seconds, then finishes its round; set-up and the
# warm-up round come on top.
TIMEOUT_FACTOR, TIMEOUT_MARGIN_S = 2, 100
BLAS_THREADS = "1"  # at most nproc; one thread keeps timings steady on a shared host
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "revrank" / "__init__.py").is_file():
        return fail(f"no revrank sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({name: BLAS_THREADS for name in THREAD_VARIABLES})
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work),
    ]
    if args.trace:
        command += ["--trace-out", str(OUT / f"spans-{tag}.tsv.gz")]
    OUT.mkdir(exist_ok=True)
    timeout = TIMEOUT_FACTOR * args.seconds + TIMEOUT_MARGIN_S
    try:
        child = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {timeout:g} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return fail(f"workload process exited with {child.returncode}")
    result = json.loads(lines[-1])
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    report(args.workload, result)
    metrics = result["metrics"]
    correct = result["failed"] == 0
    if correct:
        got = {name: unit for name, (_, unit, _) in metrics.items()}
        if got != declared:
            return fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def report(workload: str, result: dict) -> None:
    """Human-readable lines before the JSON result line."""
    print(f"# workload={workload} rounds={result['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"{name}\t{value:.6g}\t{unit}\tn={samples}")
    for name, (value, unit, samples) in result.get("ungated", {}).items():
        print(f"# not gated: {name}\t{value:.6g}\t{unit}\tn={samples}")
    print("# environment " + json.dumps(result["environment"]))
    print("# guards " + json.dumps(result["guards"]))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for name in result.get("zero_call_flags", []):
        print(f"# flag: {name} recorded no calls")
    for name in result.get("absent", []):
        print(f"# flag: {name} is absent")
    for name in result.get("ratio_errors", []):
        print(f"# flag: {name} saw a return value of an unexpected shape")
    for text, met in result.get("expectations", {}).items():
        print(f"# expect {text}: {'yes' if met else 'NO'}")
    for kind, entries in result.get("phases", {}).items():
        top = ", ".join(f"{n} {e['self_s']:.3f}s" for n, e in list(entries.items())[:4])
        print(f"# phase {kind}: {top}")


if __name__ == "__main__":
    sys.exit(main())
