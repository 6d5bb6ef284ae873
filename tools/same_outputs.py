"""Check that two checkouts of revrank produce the same outputs.

    python3 tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  The inputs are written
once, with PARENT's ``bench/inputs.write_inputs``: the train-desk corpus of
seed 5 and the train-widevocab corpus of seed 3; and with PARENT's
``gen-synthetic --accommodations 40 --reviews 1..4``, a sparse corpus with
one-review accommodations, ranked with train-desk's ``small.csv`` and
``large.csv``.  Each side then runs the same commands in a subprocess, with
its own ``src`` on ``PYTHONPATH``, one BLAS thread and ``PYTHONHASHSEED=0``:

- ``train --preset desk`` on train-desk with default flags, ``--epochs 0``,
  ``--split 1,0,0 --epochs 2``, ``--d 1 --d-e 1 --epochs 2``,
  ``--loss bce --sampler random --epochs 2``, ``--sampler random --split
  1,0,0 --batch-size 59`` (3600 = 61 x 59 + 1: one record is left out of
  each epoch), ``--batch-size 11`` (groups of 12 = 11 + 1: each
  accommodation gets one merged batch of 12) and ``--sampler random
  --batch-size 30 --epochs 1`` (30 contexts of about 38 tokens are pooled
  in several padded blocks, and their backward pass runs several blocks of
  projection and bincount); on train-widevocab with
  ``--epochs 1`` and ``--epochs 2`` (a wide table whose best model is the
  final one, or a copy when epoch 1 is best); and on the sparse corpus with
  default flags (one-review accommodations are left out);
- after each training, ``evaluate --split 0.8,0.1,0.1`` with ``--methods
  model,votes,untrained`` and with ``--methods model,votes``, and ``rank``
  on ``small.csv`` and ``large.csv``, all from ``best.npz``; three methods
  give the Friedman test two degrees of freedom and two give one, so both
  parities of its chi-square tail are printed (the ``--epochs 0`` and
  sparse trainings' p-values are far from 0 and 1);
- ``compare`` of the default training's ``best.npz`` against the
  ``--epochs 0`` one on the train-desk corpus, with and without
  ``--stratify``, over a small lexicon written next to the inputs;
- ``gen-synthetic`` with default flags and with ``--reviews 5..15``;
- ``ingest --strict`` of the train-desk corpus, and ``ingest``, lenient and
  ``--strict``, of a copy with malformed rows: a bad number, an empty
  numeric cell, a short row, an unknown guest type and an accommodation
  context that disagrees with an earlier row.

Every written file and every command's exit code, standard output and
standard error are compared, with ``seconds=`` values masked and each
side's output directory replaced by a placeholder.  One line is printed
per output; the exit code is 0 only when all of them are identical and
every command exited with its expected code (1 for ``ingest --strict`` of
the malformed copy, 0 for the others), so that a command line both sides
reject cannot pass.  Nothing under either checkout is written.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CORPORA = {"desk": ("train-desk", 5), "widevocab": ("train-widevocab", 3)}
SPARSE = ("--accommodations", "40", "--reviews", "1..4")
TRAININGS = {
    "desk-default": ("desk", ()),
    "desk-epochs0": ("desk", ("--epochs", "0")),
    "desk-nosplit": ("desk", ("--split", "1,0,0", "--epochs", "2")),
    "desk-d1": ("desk", ("--d", "1", "--d-e", "1", "--epochs", "2")),
    "desk-bce-random": ("desk", ("--loss", "bce", "--sampler", "random", "--epochs", "2")),
    "desk-random-drop": ("desk", ("--sampler", "random", "--split", "1,0,0",
                                  "--batch-size", "59")),
    "desk-merge": ("desk", ("--batch-size", "11")),
    "desk-random-blocks": ("desk", ("--sampler", "random", "--batch-size", "30",
                                    "--epochs", "1")),
    "widevocab": ("widevocab", ("--epochs", "1")),
    "widevocab-epochs2": ("widevocab", ("--epochs", "2")),
    "sparse": ("sparse", ()),
}
COMPARES = {"compare": (), "compare-stratify": ("--stratify",)}
GEN_SYNTHETIC = {"gen-synthetic": (), "gen-synthetic-reviews": ("--reviews", "5..15")}
EXIT_CODES = {"ingest-malformed-strict exit": b"1"}  # every other command exits 0
LEXICON = """\
solo: quiet, wifi, laptop, workspace
romance: romantic, sunset, terrace, champagne
friends: friends, karaoke, lounge, billiards
family: kids, playground, toddler, stroller
basics: clean, breakfast, staff, location
"""
CONTEXT = (
    "--context", "guest_type=Couple", "--context", "guest_country=France",
    "--context", "room_nights=3", "--context", "month=July",
)
SECONDS = re.compile(rb"seconds=[0-9.]+")

WRITE_INPUTS = """
import sys
from pathlib import Path
from inputs import WORKLOADS, workload_pool, write_inputs
workload = WORKLOADS[sys.argv[1]]
seed = int(sys.argv[2])
write_inputs(workload, seed, Path(sys.argv[3]), workload_pool(workload, seed))
"""


def environment(src: Path, *more: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(str(p) for p in (src, *more)),
        OPENBLAS_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",  # leave both checkouts untouched
    )
    return env


def run(argv: list[str], env: dict[str, str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=env, cwd=cwd, capture_output=True, check=False
    )


def write_malformed(corpus: Path, path: Path) -> None:
    """A copy of ``corpus`` in which five rows are malformed, each another way."""
    with corpus.open(newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    column = {name: i for i, name in enumerate(header)}
    rows[0][column["review_score"]] = "8.x"
    rows[1][column["room_nights"]] = ""
    del rows[2][column["month"]:]
    rows[3][column["guest_type"]] = "Astronaut"
    # The last row's accommodation is one that earlier, unchanged rows have.
    score = column["accommodation_score"]
    rows[-1][score] = "2.0" if float(rows[-1][score]) != 2.0 else "3.0"
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *rows])


def write_inputs(parent: Path, work: Path) -> dict[str, Path]:
    """The directory of each corpus, by name (the sparse one as "sparse"),
    the lexicon file as "lexicon" and the malformed copy of the train-desk
    corpus as "malformed"."""
    env = environment(parent / "src", parent / "bench")
    dirs = {"lexicon": work / "inputs" / "lexicon.txt"}
    for name, (workload, seed) in CORPORA.items():
        dirs[name] = work / "inputs" / name
        done = run(["-c", WRITE_INPUTS, workload, str(seed), str(dirs[name])], env, work)
        if done.returncode != 0:
            raise SystemExit(f"error: writing the {workload} inputs failed:\n"
                             f"{done.stderr.decode(errors='replace')}")
    dirs["sparse"] = work / "inputs" / "sparse"
    dirs["sparse"].mkdir()
    done = run(["-m", "revrank", "gen-synthetic", *SPARSE,
                "--out", str(dirs["sparse"] / "corpus.csv")], env, work)
    if done.returncode != 0:
        raise SystemExit(f"error: writing the sparse corpus failed:\n"
                         f"{done.stderr.decode(errors='replace')}")
    for reviews in ("small.csv", "large.csv"):
        shutil.copy(dirs["desk"] / reviews, dirs["sparse"] / reviews)
    dirs["lexicon"].write_text(LEXICON, encoding="utf-8")
    dirs["malformed"] = work / "inputs" / "malformed.csv"
    write_malformed(dirs["desk"] / "corpus.csv", dirs["malformed"])
    return dirs


def side_outputs(checkout: Path, out: Path, inputs: dict[str, Path]) -> dict[str, bytes]:
    """Every output of one checkout, by name, masked and normalized."""
    env = environment(checkout / "src")
    outputs = {}

    def command(key: str, argv: list[str]) -> None:
        done = run(["-m", "revrank", *argv], env, out)
        outputs[f"{key} exit"] = str(done.returncode).encode()
        outputs[f"{key} stdout"] = done.stdout
        outputs[f"{key} stderr"] = done.stderr

    for training, (corpus, flags) in TRAININGS.items():
        data = inputs[corpus]
        ckpt = out / training
        command(f"{training}/train", ["train", "--preset", "desk", *flags,
                                      "--data", str(data / "corpus.csv"), "--out", str(ckpt)])
        best = str(ckpt / "best.npz")
        for key, methods in (("evaluate", "model,votes,untrained"),
                             ("evaluate-two-methods", "model,votes")):
            command(f"{training}/{key}", [
                "evaluate", "--checkpoint", best, "--data", str(data / "corpus.csv"),
                "--split", "0.8,0.1,0.1", "--methods", methods])
        for reviews, top in (("small", "12"), ("large", "500")):
            command(f"{training}/rank-{reviews}", [
                "rank", "--checkpoint", best, "--reviews", str(data / f"{reviews}.csv"),
                "--top", top, *CONTEXT])
        for path in sorted(ckpt.iterdir()) if ckpt.is_dir() else ():
            outputs[f"{training}/{path.name}"] = path.read_bytes()
    for name, flags in COMPARES.items():
        command(name, [
            "compare", "--checkpoint", str(out / "desk-default" / "best.npz"),
            "--baseline-checkpoint", str(out / "desk-epochs0" / "best.npz"),
            "--data", str(inputs["desk"] / "corpus.csv"), "--lexicon", str(inputs["lexicon"]),
            *flags])
    for name, flags in GEN_SYNTHETIC.items():
        path = out / f"{name}.csv"
        command(name, ["gen-synthetic", "--out", str(path), *flags])
        outputs[f"{name}.csv"] = path.read_bytes() if path.is_file() else b""
    command("ingest-corpus-strict", ["ingest", "--input", str(inputs["desk"] / "corpus.csv"),
                                     "--strict"])
    command("ingest-malformed", ["ingest", "--input", str(inputs["malformed"])])
    command("ingest-malformed-strict", ["ingest", "--input", str(inputs["malformed"]),
                                        "--strict"])
    return {
        key: SECONDS.sub(b"seconds=*", value.replace(str(out).encode(), b"<OUT>"))
        for key, value in outputs.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the reference checkout")
    parser.add_argument("change", type=Path, help="root of the checkout under test")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for root in (parent, change):
        if not (root / "src" / "revrank").is_dir():
            print(f"error: {root} is not a revrank checkout", file=sys.stderr)
            return 1
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        inputs = write_inputs(parent, work)
        sides = []
        for name, root in (("parent", parent), ("change", change)):
            (work / name).mkdir()
            sides.append(side_outputs(root, work / name, inputs))
    keys = sorted(set(sides[0]) | set(sides[1]))
    bad = 0
    for key in keys:
        values = (sides[0].get(key), sides[1].get(key))
        verdict = "same" if values[0] == values[1] else "DIFFERS"
        expected = EXIT_CODES.get(key, b"0")
        if key.endswith(" exit") and values != (expected, expected):
            verdict = f"FAILED ({values[0]!r}, {values[1]!r})"
        bad += verdict != "same"
        print(f"{verdict}  {key}")
    print(f"{len(keys) - bad} of {len(keys)} outputs same")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
