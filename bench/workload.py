"""One benchmark run of one workload, in its own process.

Started by ``run.py`` with capped BLAS threads; prints its result as one
JSON object on the last line of standard output.  All load comes from this
process: one client, one operation in flight (a closed loop).  Each round
trains, then interleaves evaluate calls, rank queries and two more timed
set-ups; rounds repeat until the measuring time is used up and every kind
has its minimum number of samples.  The first operation of each kind is a
warm-up: it is checked but its time is not a sample.  Throughputs are
total work over total time of the sampled calls; latencies are
percentiles of the sampled calls.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import (  # noqa: E402
    WORKLOADS, Generated, Inputs, Workload, bayes_ceiling, describe_inputs, file_digests,
    guard_problems, workload_pool, write_inputs,
)
from tracing import TARGETS, Tracer, span_names  # noqa: E402

SETUPS_PER_ROUND = 2  # besides the first set-up, which comes before round 0
MIN_ROUNDS = 3  # round 0 warms up; the rest give at least 2 train samples
MIN_TRACED_ROUNDS = 7  # the warm-up, then 3 traced and 3 untraced rounds
RANK_TOP = 20
REFERENCE_SPAN = "synthgen.bayes_optimal_mrr"
# Test MRR of a model that learned spans 0.35-0.49 over seeds 1-20; random
# ranking gives H_12/12 = 0.259.
QUALITY_MARGIN = 0.05

_MRR_LINE = re.compile(r"^(\w+)\tmrr\t(\S+)\t", re.MULTILINE)
_LOSS = re.compile(r"mean_loss=(\S+)")


class Run:
    """Samples, operation counts and failures of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[tuple[float, float]]] = {}  # (seconds, work)
        self.seen: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.vocab_size: int | None = None
        self.setup_times: list[float] = []
        self.traced_setups = 0
        self.traced_rounds = 0

    @property
    def traced(self) -> bool:
        return self.tracer is not None and self.tracer.installed

    def begin(self, kind: str) -> None:
        """Spans recorded from now on belong to an operation of ``kind``."""
        if self.tracer is not None:
            self.tracer.begin_op(kind)

    def cli(self, kind: str, argv: list[str]) -> tuple[int, str, float]:
        """Run one CLI command in-process; returns exit code, stdout, seconds."""
        from revrank import cli

        self.attempted += 1
        self.begin(kind)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        self.begin("bench")
        return code, out.getvalue(), seconds

    def sample(self, kind: str, seconds: float, work: float = 1.0) -> None:
        if kind in self.seen:  # the first operation of each kind warms up
            self.samples.setdefault(kind, []).append((seconds, work))
        self.seen.add(kind)

    def count(self, kind: str) -> int:
        return len(self.samples.get(kind, ()))

    def rate(self, kind: str) -> float:
        return sum(w for _, w in self.samples[kind]) / sum(s for s, _ in self.samples[kind])

    def latencies_ms(self, kind: str) -> list[float]:
        return [s * 1000.0 for s, _ in self.samples[kind]]

    def check(self, kind: str, problems: list[str]) -> None:
        """Record an operation's failed output checks, if any."""
        if problems:
            self.failed += 1
            self.failures += [f"{kind}: {p}" for p in problems]


def check_train(code, output: str, out_dir: Path) -> list[str]:
    if code != 0:
        return [f"exit {code}"]
    losses = [float(x) for x in _LOSS.findall(output)]
    problems = [] if losses else ["no epoch lines"]
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"non-finite epoch loss in {losses}")
    for name in ("final.npz", "best.npz"):
        with np.load(out_dir / name, allow_pickle=False) as data:
            for key in data.files:
                array = data[key]
                if array.dtype.kind == "f" and not np.all(np.isfinite(array)):
                    problems.append(f"non-finite parameters in {name}:{key}")
    return problems


def check_evaluate(code, output: str, ceiling: tuple[float, float] | None) -> list[str]:
    if code != 0:
        return [f"exit {code}"]
    mrrs = {name: float(value) for name, value in _MRR_LINE.findall(output)}
    problems = [] if mrrs else ["no mrr lines"]
    problems += [f"{n} mrr {v} outside (0, 1]" for n, v in mrrs.items() if not 0 < v <= 1]
    if "# friedman\t" not in output:
        problems.append("no friedman line")
    if ceiling is not None and "model" in mrrs:
        low, high = ceiling
        if not low <= mrrs["model"] <= high:
            problems.append(f"model mrr {mrrs['model']:.6f} outside [{low:.6f}, {high:.6f}]")
    return problems


def check_rank(code, output: str, m: int) -> list[str]:
    if code != 0:
        return [f"exit {code}"]
    lines = output.splitlines()
    if not lines or not re.search(rf"\breviews={m}\b", lines[0]):
        return [f"header without reviews={m}: {lines[:1]}"]
    rows = lines[1:]
    if len(rows) != min(RANK_TOP, m):
        return [f"{len(rows)} result lines, expected {min(RANK_TOP, m)}"]
    scores = [float(row.split("\t")[1]) for row in rows]
    if not all(0.0 <= s <= 1.0 for s in scores):
        return [f"score outside [0, 1] in {scores}"]
    if any(b > a for a, b in zip(scores, scores[1:])):
        return ["scores increase down the list"]
    return []


def quality_ceiling(inputs: Inputs) -> tuple[float, float] | None:
    """Test MRR must be far above random (H_m/m) and at most the Bayes ceiling."""
    if inputs.bayes_mrr is None:
        return None
    random_mrr = sum(1.0 / i for i in range(1, 13)) / 12
    return random_mrr + QUALITY_MARGIN, inputs.bayes_mrr


class Setups:
    """Timed set-ups, spread over the run so that they meet the same host speeds."""

    def __init__(self, run: Run, workload: Workload, seed: int, work: Path):
        self.run, self.workload, self.seed, self.work = run, workload, seed, work
        self.pool = workload_pool(workload, seed)
        self.digests: dict[str, str] = {}  # the first set-up's files

    def once(self) -> Generated:
        """One timed set-up in its own directory; the first one's files are kept."""
        run = self.run
        run.attempted += 1
        run.traced_setups += run.traced
        run.begin("setup")
        start = time.perf_counter()
        generated = write_inputs(self.workload, self.seed, self.work / f"setup{len(run.setup_times)}",
                                 self.pool)
        run.setup_times.append(time.perf_counter() - start)
        run.begin("bench")
        digests = file_digests(generated)
        if not self.digests:
            self.digests = digests
        else:
            run.check("setup", [] if digests == self.digests else ["files differ from the first set-up's"])
            shutil.rmtree(generated.paths["corpus"].parent)
        return generated


def run_round(run: Run, workload: Workload, inputs: Inputs, setups: Setups, query: int) -> int:
    """Train once, then evaluate, query and set up again; returns the next query index."""
    ckpt_dir = setups.work / "model"
    argv = ["train", "--preset", "desk", *workload.train_flags,
            "--data", str(inputs.corpus), "--out", str(ckpt_dir)]
    code, output, seconds = run.cli("train", argv)
    problems = check_train(code, output, ckpt_dir)
    run.check("train", problems)
    if problems:
        return query
    epochs = len(_LOSS.findall(output))
    run.sample("train", seconds, epochs * inputs.train_pairs)
    checkpoint = str(ckpt_dir / "best.npz")
    vocab_file = ckpt_dir / "vocabulary.txt"
    run.vocab_size = len(vocab_file.read_text(encoding="utf-8").splitlines())

    methods = len(workload.eval_methods.split(","))
    queries = {"rank_small": (inputs.small, 12), "rank_large": (inputs.large, 500)}
    counts = {"evaluate": workload.evaluations, "rank_small": workload.small_queries,
              "rank_large": workload.large_queries, "setup": SETUPS_PER_ROUND}
    # Each kind is spread evenly over the round, so drift hits every kind alike.
    plan = sorted(((i + 0.5) / n, kind) for kind, n in counts.items() for i in range(n))
    for _, kind in plan:
        if kind == "setup":
            setups.once()
            continue
        if kind == "evaluate":
            argv = ["evaluate", "--checkpoint", checkpoint, *inputs.eval_args,
                    "--methods", workload.eval_methods]
            code, output, seconds = run.cli(kind, argv)
            run.check(kind, check_evaluate(code, output, quality_ceiling(inputs)))
            run.sample(kind, seconds, inputs.eval_contexts * methods)
            continue
        path, m = queries[kind]
        context = inputs.contexts[query % len(inputs.contexts)]
        query += 1
        argv = ["rank", "--checkpoint", checkpoint, "--reviews", str(path),
                "--top", str(RANK_TOP), *context]
        code, output, seconds = run.cli(kind, argv)
        run.check(kind, check_rank(code, output, m))
        run.sample(kind, seconds)
    return query


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import revrank

    for module in TARGETS:  # the tracer patches only modules already loaded
        with contextlib.suppress(ModuleNotFoundError):
            importlib.import_module(f"revrank.{module}")
    if Path(revrank.__file__).resolve().parent != ROOT / "src" / "revrank":
        raise SystemExit(f"imported revrank from {revrank.__file__}, not this checkout")

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = Run(tracer)
    if tracer is not None:
        tracer.install()
    setups = Setups(run, workload, args.seed, args.work_dir)
    generated = setups.once()
    inputs = describe_inputs(workload, args.seed, generated)
    if workload.check_quality:
        run.begin("reference")
        inputs.bayes_mrr = bayes_ceiling(generated, inputs)
        run.begin("bench")

    # Round 0 warms up.  A traced run alternates traced and untraced rounds,
    # starting traced, so the tracing overhead compares rounds run at the
    # same host speeds.
    rounds: list[tuple[bool, float]] = []  # (traced, seconds)
    min_rounds = MIN_TRACED_ROUNDS if tracer is not None else MIN_ROUNDS
    query = 0
    started = time.perf_counter()
    while not run.failures and not (
        len(rounds) >= min_rounds
        and time.perf_counter() - started >= args.seconds
        and min(run.count("rank_small"), run.count("rank_large")) >= workload.min_rank_samples
    ):
        if tracer is not None:
            if len(rounds) % 2 == 0:
                tracer.install()
            else:
                tracer.uninstall()
        run.traced_rounds += run.traced
        start = time.perf_counter()
        query = run_round(run, workload, inputs, setups, query)
        rounds.append((run.traced, time.perf_counter() - start))
    if tracer is not None:
        tracer.uninstall()

    guards = dict(inputs.guards, vocab_size=run.vocab_size)
    guard_failures = guard_problems(workload, guards)
    result = {
        "attempted": run.attempted,
        "failed": run.failed + len(guard_failures),
        "failures": run.failures[:20] + [f"guard: {p}" for p in guard_failures],
        "rounds": len(rounds),
        "guards": guards,
        "environment": {
            "seed": args.seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "sample_seconds": dict(
            {k: [s for s, _ in v] for k, v in run.samples.items()}, setup=run.setup_times),
    }
    if run.failures or guard_failures:
        result["metrics"] = {}
    elif tracer is None:
        result["metrics"], result["ungated"] = end_to_end_metrics(run)
    else:
        result["metrics"] = per_layer_metrics(tracer, run, rounds)
        result["phases"] = phase_report(tracer)
        result["absent"] = tracer.absent
        result["ratio_errors"] = sorted(tracer.ratio_errors)
        result["expectations"] = layer_expectations(workload, result["phases"])
        result["zero_call_flags"] = [
            name for name in span_names()
            if result["metrics"][f"{name}.calls"][0] == 0
            and (workload.check_quality or name != "synthgen.bayes_optimal_mrr")
        ]
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


def end_to_end_metrics(run: Run) -> tuple[dict, dict]:
    """Gated metrics, and the latency medians that are reported but not gated.

    On a host whose CPU speed switches between two levels for tens of
    seconds at a time, a run's median latency lands on either level, while
    its p90 stays on the slow one; so only the p90 latencies are gated.
    """
    n = {kind: len(samples) for kind, samples in run.samples.items()}
    small, large = run.latencies_ms("rank_small"), run.latencies_ms("rank_large")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(run.setup_times), "s", len(run.setup_times)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
        "train_pairs_per_s": (run.rate("train"), "pairs/s", n["train"]),
        "eval_contexts_per_s": (run.rate("evaluate"), "contexts/s", n["evaluate"]),
        "rank_small_p90_ms": (percentile(small, 90), "ms", n["rank_small"]),
        "rank_large_p90_ms": (percentile(large, 90), "ms", n["rank_large"]),
    }
    medians = {
        "rank_small_p50_ms": (percentile(small, 50), "ms", n["rank_small"]),
        "rank_large_p50_ms": (percentile(large, 50), "ms", n["rank_large"]),
    }
    return metrics, medians


def per_layer_metrics(tracer, run: Run, rounds: list[tuple[bool, float]]) -> dict:
    """Per-layer metrics for one set-up plus one round.

    Set-up spans are divided by the traced set-ups and round spans by the
    traced rounds, so a faster program does not show more calls.  The
    Bayes reference is computed once per run, and only its own span
    counts; the benchmark's own guards ("bench" spans) are left out.
    """
    divisors = {"setup": run.traced_setups, "reference": 1}
    totals: dict[str, list[float]] = {name: [0.0, 0.0] for name in span_names()}
    for (kind, name), (calls, self_s, _) in tracer.self_times().items():
        if kind == "bench" or (kind == "reference" and name != REFERENCE_SPAN):
            continue
        share = divisors.get(kind, run.traced_rounds)
        totals[name][0] += calls / share
        totals[name][1] += self_s / share
    metrics = {}
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = (calls, "count", run.traced_rounds)
        metrics[f"{name}.self_s"] = (self_s, "s", run.traced_rounds)
    for name, value in tracer.ratios().items():
        metrics[name] = (value, "share", tracer.ratio_counts[name][1])
    # Round 0 warms up; the rest alternate traced and untraced.
    traced = [s for i, (t, s) in enumerate(rounds) if i > 0 and t]
    untraced = [s for t, s in rounds if not t]
    overhead = statistics.median(traced) - statistics.median(untraced)
    n = min(len(traced), len(untraced))
    metrics["trace.overhead_s"] = (overhead, "s", n)
    metrics["trace.overhead_share"] = (overhead / statistics.median(untraced), "share", n)
    return metrics


def phase_report(tracer) -> dict:
    """Per operation kind: span self time and calls, largest first."""
    phases: dict[str, dict] = {}
    for (kind, name), (calls, self_s, total_s) in tracer.self_times().items():
        phases.setdefault(kind, {})[name] = {"calls": calls, "self_s": self_s, "total_s": total_s}
    return {
        kind: dict(sorted(entries.items(), key=lambda kv: -kv[1]["self_s"]))
        for kind, entries in phases.items()
    }


def _leaders(phase: dict, n: int) -> set[str]:
    return set(list(phase)[:n])


def layer_expectations(workload: Workload, phases: dict) -> dict[str, bool]:
    """Does the layer each workload was chosen for show the largest self time?"""
    if workload.name == "train-widevocab":
        train = phases.get("train", {})
        dense = sum(train.get(name, {}).get("self_s", 0.0) for name in (
            "encoder.encode_backward_batch_ids", "trainer.optimizer_step"))
        total = train.get("trainer.train", {}).get("total_s", 0.0)
        return {"backward+optimizer_step > half of trainer.train": dense > total / 2}
    if workload.name == "serve-bigprop":
        small = phases.get("rank_small", {})
        fixed = sum(small.get(name, {}).get("self_s", 0.0) for name in (
            "cli.build_parser", "encoder.load_checkpoint", "dataset.load_csv"))
        return {
            "evaluate: rank_from_scores leads":
                _leaders(phases.get("evaluate", {}), 1) == {"evaluation.rank_from_scores"},
            "rank_small: build_parser and load_checkpoint lead":
                _leaders(small, 2) == {"cli.build_parser", "encoder.load_checkpoint"},
            "rank_small: build_parser+load_checkpoint+load_csv > half":
                fixed > sum(e["self_s"] for e in small.values()) / 2,
        }
    return {}


if __name__ == "__main__":
    sys.exit(main())
