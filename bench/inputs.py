"""Seeded inputs for the benchmark workloads.

Everything here is a function of the workload seed.  The program under test
only ever sees the CSV files written by :func:`write_inputs`, the timed
set-up.  :func:`describe_inputs` and :func:`bayes_ceiling` compute, outside
that timing, the reference values the output checks need and the
input-property guards recorded with each result.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLIT = "0.8,0.1,0.1"
TRAIN_SEED = 0  # the desk preset's seed; the evaluate split must use it too

GUEST_TYPES = ("Solo traveller", "Couple", "Group", "Family with children")
COUNTRIES = ("UK", "Germany", "France", "Netherlands", "Spain", "Italy", "Poland", "Japan")
MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)


@dataclass(frozen=True)
class Workload:
    """One named workload: corpus shape, training flags and operation mix.

    Every round of a run trains on ``corpus.csv``, then runs ``evaluations``
    evaluate calls, ``small_queries`` rank queries against a 12-review
    accommodation and ``large_queries`` against a 500-review one.  Rounds
    repeat until the measuring time is used up and each rank kind has at
    least ``min_rank_samples`` timed queries.
    """

    name: str
    accommodations: int  # in the training corpus, 12 reviews each
    extra_tokens: int  # random pool tokens appended to every review
    train_flags: tuple[str, ...]
    eval_accommodations: int  # 0: the corpus test split; else N x 500 reviews
    eval_methods: str
    evaluations: int
    small_queries: int
    large_queries: int
    min_rank_samples: int = 30
    min_vocab: int = 0
    check_quality: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-desk",
            accommodations=300, extra_tokens=0, train_flags=(),
            eval_accommodations=0, eval_methods="model,votes", evaluations=4,
            small_queries=20, large_queries=8, check_quality=True,
        ),
        Workload(
            name="train-widevocab",
            accommodations=40, extra_tokens=90, train_flags=("--epochs", "1"),
            eval_accommodations=0, eval_methods="model,votes", evaluations=4,
            small_queries=11, large_queries=11, min_vocab=20000,
        ),
        Workload(
            name="serve-bigprop",
            accommodations=60, extra_tokens=0, train_flags=(),
            eval_accommodations=3, eval_methods="model,votes,untrained", evaluations=2,
            small_queries=34, large_queries=34, min_rank_samples=100,
        ),
    )
}

POOL_SIZE = 60000  # distinct tokens the wide-vocabulary reviews draw from
N_CONTEXTS = 64  # distinct guest contexts cycled through by rank queries


@dataclass
class Inputs:
    corpus: Path
    small: Path
    large: Path
    eval_args: tuple[str, ...]  # evaluate flags that select the data
    eval_contexts: int  # sum of evaluated group sizes
    train_pairs: int  # records in the training split
    contexts: list[list[str]]  # --context flags, one list per query
    test_records: list  # the corpus test split
    bayes_mrr: float | None  # Bayes ceiling on the corpus test split
    guards: dict


def _derive(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def token_pool(seed: int, size: int = POOL_SIZE) -> list[str]:
    """``size`` distinct lowercase tokens of 6-9 letters, in draw order."""
    rng = np.random.default_rng(seed)
    seen: dict[str, None] = {}
    while len(seen) < size:
        letters = (rng.integers(0, 26, size=(size, 9)) + ord("a")).astype(np.uint8)
        lengths = rng.integers(6, 10, size=size)
        for row, n in zip(letters, lengths):
            seen.setdefault(row[:n].tobytes().decode("ascii"))
            if len(seen) == size:
                break
    return list(seen)


def workload_pool(workload: Workload, seed: int) -> list[str]:
    """The token pool :func:`write_inputs` draws from; empty if it adds none."""
    return token_pool(_derive(seed, 1)) if workload.extra_tokens else []


def _widen(records, n_tokens: int, pool: list[str], seed: int):
    """Append ``n_tokens`` uniform pool draws to each review's positive text."""
    if n_tokens == 0:
        return records
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, len(pool), size=(len(records), n_tokens))
    out = []
    for record, row in zip(records, draws):
        text = record.review.review_positive + " " + " ".join(pool[i] for i in row)
        review = dataclasses.replace(record.review, review_positive=text)
        out.append(dataclasses.replace(record, review=review))
    return out


def _contexts(seed: int) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    contexts = []
    for _ in range(N_CONTEXTS):
        values = {
            "guest_type": GUEST_TYPES[rng.integers(len(GUEST_TYPES))],
            "guest_country": COUNTRIES[rng.integers(len(COUNTRIES))],
            "room_nights": str(1 + int(rng.integers(14))),
            "month": MONTHS[rng.integers(12)],
        }
        flags = []
        for key, value in values.items():
            flags += ["--context", f"{key}={value}"]
        contexts.append(flags)
    return contexts


@dataclass
class Generated:
    """The CSV files one set-up writes, with the records behind them."""

    config: object  # the corpus's SynthConfig
    records: dict[str, list]
    paths: dict[str, Path]


def write_inputs(workload: Workload, seed: int, out_dir: Path, pool: list[str]) -> Generated:
    """Generate the workload's corpora and write them as CSVs (the timed set-up).

    ``pool`` is :func:`workload_pool`'s output, built once per run outside
    the timing.
    """
    from revrank import dataset, synthgen

    out_dir.mkdir(parents=True, exist_ok=True)

    def corpus_of(stream: int, n_acc: int, n_reviews: int):
        config = synthgen.SynthConfig(
            n_accommodations=n_acc,
            reviews_per_accommodation=(n_reviews, n_reviews),
            seed=_derive(seed, stream),
        )
        records = synthgen.generate(config)
        return config, _widen(records, workload.extra_tokens, pool, _derive(seed, 100 + stream))

    config, corpus = corpus_of(2, workload.accommodations, 12)
    records = {"corpus": corpus, "small": corpus_of(3, 1, 12)[1], "large": corpus_of(4, 1, 500)[1]}
    if workload.eval_accommodations:
        records["evaluate"] = corpus_of(5, workload.eval_accommodations, 500)[1]
    paths = {name: out_dir / f"{name}.csv" for name in records}
    for name, rows in records.items():
        dataset.write_csv(rows, paths[name])
    return Generated(config, records, paths)


def file_digests(generated: Generated) -> dict[str, str]:
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in generated.paths.items()}


def describe_inputs(workload: Workload, seed: int, generated: Generated) -> Inputs:
    """Reference values and input guards of one set-up's files; not timed.

    ``bayes_mrr`` is left unset: :func:`bayes_ceiling` fills it in.
    """
    from revrank import dataset, encoder, textualize

    records, paths = generated.records, generated.paths
    groups = dataset.group_by_accommodation(records["corpus"])
    fractions = tuple(float(f) for f in SPLIT.split(","))
    train_groups, _, test_groups = dataset.split_dataset(groups, fractions, TRAIN_SEED)
    if workload.eval_accommodations:
        eval_groups = dataset.group_by_accommodation(records["evaluate"])
        eval_args = ("--data", str(paths["evaluate"]))
    else:
        eval_groups = test_groups
        eval_args = ("--data", str(paths["corpus"]), "--split", SPLIT,
                     "--part", "test", "--seed", str(TRAIN_SEED))

    max_tokens = getattr(encoder, "MAX_TOKENS", 128)
    all_records = [r for rows in records.values() for r in rows]
    truncated = sum(
        len(encoder.tokenize(textualize.serialize_review(r.review))) > max_tokens
        for r in all_records
    )
    guards = {
        "truncated_review_share": truncated / len(all_records),
        "corpus_group_sizes": sorted({len(g) for g in groups}),
        "small_group_size": len(records["small"]),
        "large_group_size": len(records["large"]),
        "eval_group_sizes": sorted({len(g) for g in eval_groups}),
    }
    return Inputs(
        corpus=paths["corpus"],
        small=paths["small"],
        large=paths["large"],
        eval_args=eval_args,
        eval_contexts=sum(len(g) for g in eval_groups if len(g) >= 2),
        train_pairs=sum(len(g) for g in train_groups),
        contexts=_contexts(_derive(seed, 6)),
        test_records=[r for g in test_groups for r in g.records],
        bayes_mrr=None,
        guards=guards,
    )


def bayes_ceiling(generated: Generated, inputs: Inputs) -> float:
    """Bayes-optimal MRR on the corpus test split: no model can do better."""
    from revrank import synthgen

    return synthgen.bayes_optimal_mrr(generated.config, inputs.test_records)


def guard_problems(workload: Workload, guards: dict) -> list[str]:
    """Input properties the workload is defined by, checked after set-up."""
    problems = []
    if guards["truncated_review_share"] != 0:
        problems.append(f"{guards['truncated_review_share']:.4f} of reviews exceed MAX_TOKENS")
    if guards["corpus_group_sizes"] != [12] or guards["small_group_size"] != 12:
        problems.append("corpus and small accommodations must have 12 reviews")
    if guards["large_group_size"] != 500:
        problems.append("large accommodation must have 500 reviews")
    if workload.eval_accommodations and guards["eval_group_sizes"] != [500]:
        problems.append("evaluate accommodations must have 500 reviews")
    vocab = guards.get("vocab_size")
    if vocab is not None and vocab < workload.min_vocab:
        problems.append(f"|V|={vocab} below the workload's {workload.min_vocab}")
    return problems
