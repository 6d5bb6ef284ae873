"""Fuzz tests of the CLI failure contract.

Whatever the input, ``main`` returns 0, 1 or 2 and raises nothing; a
nonzero exit writes exactly one line to stderr and exit 0 writes none.
Each case calls ``main`` in-process.  Sizes stay small: at most 3
generated accommodations, and training only on a 12-review fixture for at
most one epoch.
"""

import contextlib
import io
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from revrank.cli import main
from revrank.dataset import write_csv
from revrank.encoder import DualEncoder, EncoderParams, load_checkpoint, save_checkpoint
from revrank.synthgen import SynthConfig, generate

FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def check_contract(argv: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    lines = stderr.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 1, 2), argv
    assert len(lines) == (0 if code == 0 else 1), (argv, code, lines)


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """Paths by kind: input files, written once, and outputs in a fresh directory."""
    root = tmp_path_factory.mktemp("fuzz")
    records = generate(SynthConfig(n_accommodations=3, reviews_per_accommodation=(4, 4),
                                   seed=2))
    paths = {kind: root / name for kind, name in (
        ("csv", "corpus.csv"), ("one", "one.csv"), ("lexicon", "topics.txt"),
        ("train_cfg", "train.txt"), ("synth_cfg", "synth.txt"),
        ("ckpt", "run/final.npz"))}
    write_csv(records, paths["csv"])
    write_csv(records[:4], paths["one"])
    paths["lexicon"].write_text("solo: quiet, wifi\ncouple: romantic, sunset\n")
    paths["train_cfg"].write_text("epochs = 1\nbatch_size = 2\n")
    paths["synth_cfg"].write_text("n_accommodations = 2\nreviews_per_accommodation = 2..3\n")
    assert main(["train", "--data", str(paths["csv"]), "--epochs", "1", "--d", "4",
                 "--d-e", "4", "--split", "1,0,0", "--out", str(root / "run")]) == 0
    # Two finite checkpoints that no trained model should reach: tables
    # scaled by 1e100 overflow every dot product to +-inf, so the scores
    # saturate; +-1e160 tables overflow the encodings to inf and NaN.
    model = load_checkpoint(paths["ckpt"])
    rng = np.random.default_rng(0)
    for kind, scale in (("saturated", lambda a: 1e100 * a),
                        ("overflowing", lambda a: 1e160 * rng.choice([-1.0, 1.0], a.shape))):
        paths[kind] = root / f"{kind}.npz"
        towers = [EncoderParams(*map(scale, params.blocks().values()))
                  for params in (model.context, model.review)]
        save_checkpoint(DualEncoder(model.vocab, *towers), paths[kind])
    out = root / "out"
    out.mkdir()
    missing = str(root / "missing" / "x")
    by_kind = {kind: [str(path)] for kind, path in paths.items()}
    by_kind["ckpt"] += [str(paths["saturated"]), str(paths["overflowing"])]
    by_kind["out"] = [str(out / "a.txt"), str(out / "run"), str(out), missing]
    by_kind["bad_path"] = [str(root), missing, ""] + [str(path) for path in paths.values()]
    return by_kind


BAD = ["", "x", "nan", "inf", "-1", "1..0", "1e400"]
INTS = ["0", "1", "2", "3"]
SPLITS = ["1,0,0", "0.8,0.1,0.1", "0.5,0.5", "0.4,0.4,0.4", "-1,1,1", "nan,0,1"]
CONTEXTS = ["guest_type=Couple", "guest_country=Italy", "room_nights=3", "month=July"]
BAD_CONTEXTS = ["guest_type=Alien", "room_nights=x", "month=Smarch", "shoe_size=44",
                "novalue"]

# For each subcommand: (flag, its good values or the kind of path it takes,
# or None for a switch).  The leading flags (up to the "|") are the required
# ones and two that bound the work; seven cases in eight have all of them.
# Any flag may then be repeated.  A drawn value is good seven times in
# eight; otherwise it comes from BAD, or for an input path from any path.
FLAGS = {
    "ingest": [("--input", "csv"), "|", ("--report", "out"), ("--strict", None)],
    "gen-synthetic": [
        ("--out", "out"), ("--accommodations", ["0", "1", "3"]), "|",
        ("--reviews", ["1", "2", "2..3", "3..2", "0..1"]), ("--config", "synth_cfg"),
        ("--signal", ["0", "0.5", "1", "2"]), ("--vote-fraction", ["0", "0.5", "2"]),
        ("--score-noise", ["0", "0.5"]), ("--seed", INTS),
    ],
    "train": [
        ("--data", "csv"), ("--epochs", ["0", "1"]), "|", ("--out", "out"),
        ("--config", "train_cfg"), ("--preset", ["desk", "paper", "fast"]),
        ("--split", SPLITS), ("--learning-rate", ["1e-2", "1e9", "0"]),
        ("--weight-decay", ["0", "0.01"]), ("--warmup-fraction", ["0", "0.5", "1"]),
        ("--batch-size", INTS), ("--loss", ["infonce", "bce", "mse"]),
        ("--sampler", ["random", "in-accommodation", "in_accommodation"]),
        ("--seed", INTS), ("--d", ["1", "4"]), ("--d-e", ["1", "4"]),
        ("--min-frequency", INTS), ("--max-vocab-size", INTS),
    ],
    "evaluate": [
        ("--data", "csv"), ("--checkpoint", "ckpt"), "|",
        ("--methods", ["model", "votes", "untrained", "model,votes,untrained", ",",
                       "oracle"]),
        ("--split", SPLITS), ("--part", ["train", "valid", "test", "all"]),
        ("--seed", INTS), ("--out", "out"),
    ],
    "rank": [
        ("--checkpoint", "ckpt"), ("--reviews", "one"),
        *[("--context", [context]) for context in CONTEXTS], "|",
        ("--context", BAD_CONTEXTS + CONTEXTS), ("--top", INTS),
    ],
    "compare": [
        ("--checkpoint", "ckpt"), ("--baseline-checkpoint", "ckpt"), ("--data", "csv"),
        ("--lexicon", "lexicon"), "|", ("--samples", ["1", "2", "8", "100"]),
        ("--stratify", None), ("--seed", INTS), ("--out", "out"),
    ],
}


@st.composite
def argv_cases(draw, pool):
    subcommand = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[subcommand]
    leading = flags.index("|")
    flags = flags[:leading] + flags[leading + 1:]
    if not draw(st.integers(0, 7)):
        leading = draw(st.integers(0, leading))
    chosen = flags[:leading] + draw(st.lists(st.sampled_from(flags), max_size=5))
    argv = [subcommand]
    for name, values in chosen:
        argv.append(name)
        if values is None:
            continue
        good = draw(st.integers(0, 7)) > 0
        if values == "out":  # never an input file, which a write would replace
            values = pool["out"]
        elif isinstance(values, str):
            values = pool[values] if good else pool["bad_path"]
        elif not good:
            values = BAD
        argv.append(draw(st.sampled_from(values)))
    if subcommand == "train" and "--epochs" not in argv:
        argv += ["--epochs", "1"]  # the default of 4 epochs would be slow
    if subcommand == "gen-synthetic" and "--accommodations" not in argv:
        argv += ["--accommodations", "2"]  # the default corpus has 300
    if not draw(st.integers(0, 15)):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "x", "bogus"])))
    return argv


def test_argv_exit_code_and_one_line(pool):
    @settings(FUZZ, max_examples=1000)
    @given(argv=argv_cases(pool))
    def run(argv):
        check_contract(argv)

    run()


@st.composite
def mutated(draw, base: bytes):
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
        if op == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif op == "delete":
            del data[at:at + draw(st.integers(1, 40))]
        elif op == "insert":
            chunk = draw(st.sampled_from([b",", b"\n", b'"', b"\r", b"\x00", b"\xff",
                                          b"\xc3\xa9", b"x"]))
            data[at:at] = chunk * draw(st.sampled_from([1, 2, 131073]))
        elif op == "truncate":
            del data[at:]
    return bytes(data)


def test_mutated_csv_exit_code_and_one_line(pool, tmp_path_factory):
    target = tmp_path_factory.mktemp("mutated") / "reviews.csv"
    base = Path(pool["csv"][0]).read_bytes()

    @settings(FUZZ, max_examples=600)
    @given(data=mutated(base), strict=st.booleans())
    def run(data, strict):
        target.write_bytes(data)
        check_contract(["ingest", "--input", str(target)] + (["--strict"] if strict else []))

    run()
