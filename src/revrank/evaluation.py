"""Ranking evaluation, baselines, and significance testing.

For every context in an accommodation, all of that accommodation's reviews
are scored: an m x m matrix whose row j scores context j against every
review.  A ranking is kept as a rank vector, not as an ordering: entry j is
the 1-based rank of context j's own review in row j under the order
(descending score, then ascending record position), which is

    rank[j] = 1 + #{i : row[i] > row[j]} + #{i < j : row[i] == row[j]}.

Ties therefore go to the earlier record, and -0.0 ties with 0.0.  That
holds only for exactly equal scores: two reviews with the same token ids
can score one ulp apart, because the matrix product behind the scores sums
in an order that depends on the review's column.  The count is vectorized
over the whole matrix, with no sort.  MRR and Precision@k are
macro-averaged: per accommodation first, then over accommodations; each
accommodation's mean is summed in Python, in context order, so the floats
do not depend on numpy's summation order.  Method comparison uses a
Friedman test over accommodations as blocks, with the pairwise Dunn test as
post-hoc.

The Friedman statistic follows the classical formula without tie
correction; its p-value comes from the chi-square survival function, and
Dunn p-values from the normal survival function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincc

from .contrastive import score_ids
from .dataset import AccommodationGroup, ReviewRecord
from .encoder import DualEncoder, Vocabulary, tokenize
from .textualize import review_text, serialize_record

# Both map one accommodation group to an array: a rank vector (one own-review
# rank per context) or an m x m score matrix (rows: contexts).
Ranker = Callable[[AccommodationGroup], np.ndarray]
GroupScorer = Callable[[AccommodationGroup], np.ndarray]


def rank_from_scores(scores: np.ndarray) -> np.ndarray:
    """Own-review rank vector from an m x m score matrix (rows: contexts).

    Infinite scores are ordered like any other; NaN cannot be ordered and
    is rejected.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ValueError(f"expected a square score matrix, got {scores.shape}")
    if np.isnan(scores).any():
        raise ValueError("scorer produced NaN scores")
    own = np.diagonal(scores)[:, None]
    earlier = np.tri(len(scores), k=-1, dtype=bool)  # [j, i] is i < j
    return 1 + np.count_nonzero(
        (scores > own) | ((scores == own) & earlier), axis=1
    )


# Context and review token ids of a list of records.
TokenIds = tuple[list[list[int]], list[list[int]]]


def record_ids(vocab: Vocabulary, records: Sequence[ReviewRecord]) -> TokenIds:
    """Context and review token ids of each record, in record order."""
    contexts, reviews = [], []
    for record in records:
        ctx_text, rev_text = serialize_record(record)
        contexts.append(vocab.encode_text(ctx_text))
        reviews.append(vocab.encode_text(rev_text))
    return contexts, reviews


def model_scores(
    model: DualEncoder, group: AccommodationGroup, ids: TokenIds | None = None
) -> np.ndarray:
    """Pairwise sigmoid scores for a group, encoding each text once.

    ``ids`` is the group's ``record_ids`` under ``model.vocab``, if the
    caller has them already.
    """
    if ids is None:
        ids = record_ids(model.vocab, group.records)
    return score_ids(model, *ids).values


def model_rank_group(
    model: DualEncoder, group: AccommodationGroup, ids: TokenIds | None = None
) -> np.ndarray:
    if len(group) < 2:
        raise ValueError(f"group {group.accommodation_id!r} has fewer than 2 reviews")
    return rank_from_scores(model_scores(model, group, ids))


def helpful_votes_ranking(group: AccommodationGroup) -> np.ndarray:
    """Non-personalized baseline: one shared descending-votes ordering.

    Entry j is the position of review j in that ordering, ties going to the
    earlier review.
    """
    if len(group) < 2:
        raise ValueError(f"group {group.accommodation_id!r} has fewer than 2 reviews")
    votes = [r.review.review_helpful_votes for r in group.records]
    order = sorted(range(len(votes)), key=lambda i: (-votes[i], i))
    ranks = np.empty(len(votes), dtype=np.intp)
    ranks[order] = np.arange(1, len(votes) + 1)
    return ranks


def _rank_lists(rank_vectors: Sequence[np.ndarray]) -> list[list[int]]:
    """Validated rank vectors as lists of Python ints."""
    if len(rank_vectors) == 0:
        raise ValueError("no accommodations to evaluate")
    lists = []
    for ranks in rank_vectors:
        ranks = np.asarray(ranks)
        if ranks.ndim != 1:
            raise ValueError(f"a rank vector must be 1-D, got shape {ranks.shape}")
        if ranks.size == 0:
            raise ValueError("empty accommodation in evaluation input")
        if ranks.dtype.kind not in "iu" or ranks.min() < 1:
            raise ValueError(f"ranks must be integers >= 1, got dtype {ranks.dtype}, "
                             f"minimum {ranks.min()}")
        lists.append(ranks.tolist())
    return lists


def mrr(rank_vectors: Sequence[np.ndarray]) -> float:
    """Macro MRR: mean over accommodations of mean reciprocal own-rank."""
    values = per_accommodation_mrr(rank_vectors)
    return sum(values) / len(values)


def per_accommodation_mrr(rank_vectors: Sequence[np.ndarray]) -> list[float]:
    return [sum(1.0 / r for r in ranks) / len(ranks) for ranks in _rank_lists(rank_vectors)]


def precision_at_k(rank_vectors: Sequence[np.ndarray], k: int) -> float:
    """Macro Precision@k: fraction of own reviews ranked in the top k."""
    values = per_accommodation_precision(rank_vectors, k)
    return sum(values) / len(values)


def per_accommodation_precision(rank_vectors: Sequence[np.ndarray], k: int) -> list[float]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [
        sum(1 for r in ranks if r <= k) / len(ranks) for ranks in _rank_lists(rank_vectors)
    ]


def random_scorer_expectation(m: int) -> float:
    """Expected reciprocal rank of one item under a uniformly random order.

    Equals H_m / m, where H_m is the m-th harmonic number.
    """
    if m < 1:
        raise ValueError(f"group size must be >= 1, got {m}")
    return sum(1.0 / i for i in range(1, m + 1)) / m


def average_ranks(values: Sequence[float]) -> list[float]:
    """Ascending ranks with ties sharing their average rank (1-based)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


@dataclass
class FriedmanResult:
    statistic: float
    p_value: float
    df: int
    rank_sums: list[float]
    rank_means: list[float]
    n_blocks: int


def friedman_test(scores: np.ndarray) -> FriedmanResult:
    """Friedman chi-square over a blocks x methods score matrix.

    Higher scores get higher within-block ranks; tied scores share average
    ranks.  No tie correction is applied to the statistic.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise ValueError(f"expected a 2-D blocks x methods matrix, got {scores.shape}")
    b, m = scores.shape
    if b < 2 or m < 2:
        raise ValueError(f"need at least 2 blocks and 2 methods, got {b} x {m}")
    rank_sums = [0.0] * m
    for block in scores:
        for idx, rank in enumerate(average_ranks(block.tolist())):
            rank_sums[idx] += rank
    statistic = 12.0 / (b * m * (m + 1)) * sum(r * r for r in rank_sums) - 3.0 * b * (m + 1)
    statistic = max(statistic, 0.0)  # guard tiny negative rounding on all-tied input
    df = m - 1
    p_value = float(gammaincc(df / 2.0, statistic / 2.0))
    return FriedmanResult(
        statistic=float(statistic),
        p_value=p_value,
        df=df,
        rank_sums=rank_sums,
        rank_means=[r / b for r in rank_sums],
        n_blocks=b,
    )


@dataclass
class DunnResult:
    z: np.ndarray  # M x M, antisymmetric
    p: np.ndarray  # two-sided, unadjusted
    p_adjusted: np.ndarray  # Bonferroni over M(M-1)/2 pairs
    rank_means: list[float]


def dunn_posthoc(scores: np.ndarray) -> DunnResult:
    """Pairwise Dunn z and p over the same matrix as friedman_test."""
    scores = np.asarray(scores, dtype=float)
    friedman = friedman_test(scores)
    b, m = scores.shape
    se = math.sqrt(m * (m + 1) / (6.0 * b))
    z = np.zeros((m, m))
    p = np.ones((m, m))
    for a in range(m):
        for c in range(m):
            if a == c:
                continue
            z[a, c] = (friedman.rank_means[a] - friedman.rank_means[c]) / se
            p[a, c] = math.erfc(abs(z[a, c]) / math.sqrt(2.0))
    n_pairs = m * (m - 1) // 2
    p_adjusted = np.minimum(p * n_pairs, 1.0)
    np.fill_diagonal(p_adjusted, 1.0)
    return DunnResult(z=z, p=p, p_adjusted=p_adjusted, rank_means=friedman.rank_means)


@dataclass
class MethodScores:
    name: str
    per_accommodation: dict[str, list[float]]  # metric -> per-accommodation values
    mean: dict[str, float]
    std: dict[str, float]


@dataclass
class EvalReport:
    methods: list[MethodScores]
    ks: tuple[int, ...]
    friedman: FriedmanResult | None = None
    dunn: DunnResult | None = None


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def evaluate_methods(
    named_rankers: Sequence[tuple[str, Ranker]],
    groups: Sequence[AccommodationGroup],
    ks: tuple[int, ...] = (1, 10),
) -> EvalReport:
    """Rank every group under every method and aggregate metrics.

    Significance tests (Friedman + Dunn over per-accommodation MRR) are
    included whenever at least two methods are evaluated.
    """
    if not named_rankers:
        raise ValueError("no methods to evaluate")
    eligible = [g for g in groups if len(g) >= 2]
    if not eligible:
        raise ValueError("no accommodation with at least 2 reviews")
    methods = []
    mrr_columns = []
    for name, ranker in named_rankers:
        ranked_groups = [ranker(g) for g in eligible]
        per_acc = {"mrr": per_accommodation_mrr(ranked_groups)}
        for k in ks:
            per_acc[f"precision@{k}"] = per_accommodation_precision(ranked_groups, k)
        mean = {}
        std = {}
        for metric, values in per_acc.items():
            mean[metric], std[metric] = _mean_std(values)
        methods.append(
            MethodScores(name=name, per_accommodation=per_acc, mean=mean, std=std)
        )
        mrr_columns.append(per_acc["mrr"])
    report = EvalReport(methods=methods, ks=tuple(ks))
    if len(named_rankers) >= 2 and len(eligible) >= 2:
        matrix = np.array(mrr_columns).T  # blocks x methods
        report.friedman = friedman_test(matrix)
        report.dunn = dunn_posthoc(matrix)
    return report


def format_eval_report(report: EvalReport) -> str:
    """Stable tab-delimited rendering: method rows, significance appendix."""
    lines = ["method\tmetric\tmean\tstd"]
    metric_order = ["mrr"] + [f"precision@{k}" for k in report.ks]
    for method in report.methods:
        for metric in metric_order:
            lines.append(
                f"{method.name}\t{metric}\t{method.mean[metric]:.6f}"
                f"\t{method.std[metric]:.6f}"
            )
    if report.friedman is not None:
        fr = report.friedman
        lines.append(
            f"# friedman\tchi2={fr.statistic:.6f}\tdf={fr.df}\tp={fr.p_value:.6f}"
            f"\tblocks={fr.n_blocks}"
        )
    if report.dunn is not None:
        names = [m.name for m in report.methods]
        for a in range(len(names)):
            for c in range(a + 1, len(names)):
                lines.append(
                    f"# dunn\t{names[a]}\tvs\t{names[c]}"
                    f"\tz={report.dunn.z[a, c]:.6f}"
                    f"\tp={report.dunn.p[a, c]:.6f}"
                    f"\tp_bonferroni={report.dunn.p_adjusted[a, c]:.6f}"
                )
    return "\n".join(lines) + "\n"


def parse_lexicon(text: str) -> dict[str, list[str]]:
    """Topic lexicon from ``topic_name: keyword, keyword, ...`` lines."""
    lexicon: dict[str, list[str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"lexicon line {line_no} has no topic separator: {raw!r}")
        topic, _, keywords = line.partition(":")
        topic = topic.strip()
        if not topic:
            raise ValueError(f"lexicon line {line_no} has an empty topic name")
        words = [w.strip().lower() for w in keywords.split(",") if w.strip()]
        if not words:
            raise ValueError(f"lexicon line {line_no} lists no keywords")
        lexicon[topic] = words
    return lexicon


def detect_topics(text: str, lexicon: dict[str, list[str]]) -> set[str]:
    """Topics whose keywords occur in the text (case-insensitive).

    Multi-word keywords must appear as a contiguous token run.
    """
    tokens = tokenize(text)
    token_set = set(tokens)
    found = set()
    for topic, keywords in lexicon.items():
        for keyword in keywords:
            parts = tokenize(keyword)
            if not parts:
                continue
            if len(parts) == 1:
                if parts[0] in token_set:
                    found.add(topic)
                    break
            else:
                n = len(parts)
                if any(tokens[i : i + n] == parts for i in range(len(tokens) - n + 1)):
                    found.add(topic)
                    break
    return found


@dataclass
class OverlapRow:
    accommodation_id: str
    context_index: int
    guest_type: str
    original_text: str
    model_text: str
    baseline_text: str
    original_topics: set[str]
    model_topics: set[str]
    baseline_topics: set[str]

    @property
    def model_common(self) -> set[str]:
        return self.original_topics & self.model_topics

    @property
    def baseline_common(self) -> set[str]:
        return self.original_topics & self.baseline_topics


def _top_other(scores: np.ndarray, j: int) -> int:
    """Context j's best-scored review other than its own.

    This is the first argmax of row j with the own entry left out, the
    same review the (descending score, ascending position) order puts first
    after skipping the own one.
    """
    best = int(np.argmax(np.delete(scores[j], j)))
    return best if best < j else best + 1


def topic_overlap_report(
    groups: Sequence[AccommodationGroup],
    model_scorer: GroupScorer,
    baseline_scorer: GroupScorer,
    lexicon: dict[str, list[str]],
    n_samples: int,
    seed: int,
    stratify: bool = False,
) -> list[OverlapRow]:
    """Sampled comparison of topic overlap against a baseline scorer.

    Each scorer maps a group to its m x m score matrix.  For each sampled
    context the top-ranked review EXCLUDING the context's own is compared
    (the own review would be a trivial self-match).  With
    ``stratify`` set, samples are spread as evenly as possible across guest
    types, in enum declaration order.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    eligible = [g for g in groups if len(g) >= 2]
    if not eligible:
        raise ValueError("no accommodation with at least 2 reviews")
    candidates = [
        (g_idx, j) for g_idx, g in enumerate(eligible) for j in range(len(g))
    ]
    rng = np.random.default_rng(seed)
    if stratify:
        from .dataset import GuestType

        by_type: dict[GuestType, list[tuple[int, int]]] = {gt: [] for gt in GuestType}
        for g_idx, j in candidates:
            by_type[eligible[g_idx].records[j].guest.guest_type].append((g_idx, j))
        quota, extra = divmod(n_samples, len(GuestType))
        chosen = []
        for t_idx, gt in enumerate(GuestType):
            want = quota + (1 if t_idx < extra else 0)
            pool = by_type[gt]
            if len(pool) < want:
                raise ValueError(
                    f"not enough contexts of guest type {gt.label!r}: "
                    f"need {want}, have {len(pool)}"
                )
            picks = rng.choice(len(pool), size=want, replace=False)
            chosen.extend(pool[int(i)] for i in sorted(picks))
    else:
        if len(candidates) < n_samples:
            raise ValueError(
                f"asked for {n_samples} samples but only {len(candidates)} contexts exist"
            )
        picks = rng.choice(len(candidates), size=n_samples, replace=False)
        chosen = [candidates[int(i)] for i in sorted(picks)]

    score_cache: dict[tuple[int, str], np.ndarray] = {}

    def scores_for(g_idx: int, which: str, scorer: GroupScorer) -> np.ndarray:
        key = (g_idx, which)
        if key not in score_cache:
            group = eligible[g_idx]
            scores = np.asarray(scorer(group), dtype=float)
            if scores.shape != (len(group), len(group)):
                raise ValueError(
                    f"{which} scorer returned shape {scores.shape} for {len(group)} reviews"
                )
            if np.isnan(scores).any():
                raise ValueError(f"{which} scorer produced NaN scores")
            score_cache[key] = scores
        return score_cache[key]

    rows = []
    for g_idx, j in chosen:
        group = eligible[g_idx]
        model_pick_index = _top_other(scores_for(g_idx, "model", model_scorer), j)
        base_pick_index = _top_other(scores_for(g_idx, "baseline", baseline_scorer), j)
        original = review_text(group.records[j].review)
        model_pick = review_text(group.records[model_pick_index].review)
        base_pick = review_text(group.records[base_pick_index].review)
        rows.append(
            OverlapRow(
                accommodation_id=group.accommodation_id,
                context_index=j,
                guest_type=group.records[j].guest.guest_type.label,
                original_text=original,
                model_text=model_pick,
                baseline_text=base_pick,
                original_topics=detect_topics(original, lexicon),
                model_topics=detect_topics(model_pick, lexicon),
                baseline_topics=detect_topics(base_pick, lexicon),
            )
        )
    return rows


def format_overlap_table(rows: Sequence[OverlapRow]) -> str:
    """Plain-text rendering of a topic-overlap comparison."""
    lines = []
    for idx, row in enumerate(rows, start=1):
        lines.append(f"[{idx}] guest_type={row.guest_type} accommodation={row.accommodation_id}")
        lines.append(f"    original: {row.original_text!r}")
        lines.append(f"    original topics: {_topic_list(row.original_topics)}")
        lines.append(f"    model pick: {row.model_text!r}")
        lines.append(
            f"    model topics: {_topic_list(row.model_topics)}"
            f" | common: {_topic_list(row.model_common)} ({len(row.model_common)})"
        )
        lines.append(f"    baseline pick: {row.baseline_text!r}")
        lines.append(
            f"    baseline topics: {_topic_list(row.baseline_topics)}"
            f" | common: {_topic_list(row.baseline_common)} ({len(row.baseline_common)})"
        )
    return "\n".join(lines) + "\n"


def _topic_list(topics: set[str]) -> str:
    return ", ".join(sorted(topics)) if topics else "-"
