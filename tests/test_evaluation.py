import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from revrank.dataset import GuestType, group_by_accommodation
from revrank.encoder import (
    UNK,
    DualEncoder,
    EncoderParams,
    Vocabulary,
    build_vocabulary,
    init_params,
)
from revrank.evaluation import (
    DunnResult,
    average_ranks,
    chi2_sf,
    detect_topics,
    dunn_posthoc,
    evaluate_methods,
    format_eval_report,
    format_overlap_table,
    friedman_test,
    helpful_votes_ranking,
    model_rank_group,
    mrr,
    parse_lexicon,
    per_accommodation_mrr,
    precision_at_k,
    random_scorer_expectation,
    rank_from_scores,
    topic_overlap_report,
)

from test_dataset import make_record


def order_of(row):
    """Review positions of one score row, best first, from rank_from_scores.

    Row i of the tiled matrix is ``row`` itself with review i as its own
    entry, so the own-rank vector holds every review's rank in the row.
    """
    row = np.asarray(row, dtype=float)
    ranks = rank_from_scores(np.tile(row, (len(row), 1)))
    return tuple(int(i) for i in np.argsort(ranks))


def oracle_ranks(scores):
    """Brute force: own rank of each row under the (-score, index) sort."""
    ranks = []
    for j, row in enumerate(scores):
        order = sorted(range(len(row)), key=lambda i: (-row[i], i))
        ranks.append(order.index(j) + 1)
    return ranks


class TestRankVectors:
    def test_rejects_rank_below_one(self):
        with pytest.raises(ValueError):
            mrr([np.array([1, 0])])
        with pytest.raises(ValueError):
            precision_at_k([np.array([-1, 2])], 1)

    def test_rejects_non_integer_or_non_vector_ranks(self):
        with pytest.raises(ValueError):
            mrr([np.array([1.0, 2.5])])
        with pytest.raises(ValueError):
            mrr([np.array([[1, 2], [2, 1]])])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            mrr([])
        with pytest.raises(ValueError):
            per_accommodation_mrr([np.array([], dtype=int)])


class TestRankFromScores:
    def test_perfect_scorer(self):
        ranks = rank_from_scores(np.eye(4))
        assert all(r == 1 for r in ranks)

    def test_constant_scorer_uses_index_tiebreak(self):
        scores = np.full((3, 3), 0.5)
        ranks = rank_from_scores(scores)
        for j in range(3):
            assert order_of(scores[j]) == (0, 1, 2)
            assert ranks[j] == j + 1

    def test_hand_sorted_case(self):
        scores = np.array(
            [
                [0.2, 0.9, 0.5],
                [0.9, 0.1, 0.9],
                [0.3, 0.3, 0.3],
            ]
        )
        ranks = rank_from_scores(scores)
        assert order_of(scores[0]) == (1, 2, 0)
        assert ranks[0] == 3
        assert order_of(scores[1]) == (0, 2, 1)  # tie 0.9/0.9 broken by index
        assert ranks[1] == 3
        assert order_of(scores[2]) == (0, 1, 2)
        assert ranks[2] == 3

    def test_integer_vector_result(self):
        ranks = rank_from_scores(np.eye(3))
        assert ranks.shape == (3,)
        assert ranks.dtype.kind == "i"
        assert all(type(r) is int for r in ranks.tolist())

    def test_nonfinite_rejected(self):
        scores = np.array([[0.5, np.nan], [0.1, 0.2]])
        with pytest.raises(ValueError):
            rank_from_scores(scores)

    def test_infinite_scores_ordered(self):
        scores = np.array([[-np.inf, -np.inf, 0.0], [np.inf, -np.inf, 1.0], [0.0, 0.0, 0.0]])
        assert rank_from_scores(scores).tolist() == oracle_ranks(scores.tolist())

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            rank_from_scores(np.zeros((2, 3)))

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000), m=st.integers(2, 8))
    def test_strictly_increasing_transform_invariance(self, seed, m):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=(m, m))
        transformed = np.exp(3.0 * scores) + 7.0
        assert rank_from_scores(scores).tolist() == rank_from_scores(transformed).tolist()
        assert [order_of(row) for row in scores] == [order_of(row) for row in transformed]


# Few distinct values, so that ties and signed zeros are common.
TIE_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])


@st.composite
def score_matrices(draw, values=TIE_VALUES):
    m = draw(st.integers(2, 40))
    flat = draw(st.lists(values, min_size=m * m, max_size=m * m))
    return np.array(flat, dtype=float).reshape(m, m)


class TestRankProperties:
    @settings(max_examples=200, deadline=None)
    @given(scores=score_matrices())
    def test_matches_sort_oracle(self, scores):
        assert rank_from_scores(scores).tolist() == oracle_ranks(scores.tolist())

    @settings(max_examples=100, deadline=None)
    @given(
        scores=score_matrices(),
        transform=st.sampled_from(
            [lambda x: 3.0 * x + 7.0, np.exp, np.tanh, lambda x: x**3, lambda x: x + 0.0]
        ),
    )
    def test_invariant_under_strictly_increasing_transform(self, scores, transform):
        assert rank_from_scores(scores).tolist() == rank_from_scores(transform(scores)).tolist()

    @settings(max_examples=100, deadline=None)
    @given(votes=st.lists(st.integers(0, 3) | st.integers(0, 10**30), min_size=2, max_size=40))
    def test_votes_ranking_matches_oracle(self, votes):
        records = [make_record(acc_id="a", votes=v, title=f"r{i}") for i, v in enumerate(votes)]
        group = group_by_accommodation(records)[0]
        ranks = helpful_votes_ranking(group).tolist()
        # every context shares the votes row, so row j's own entry is votes[j]
        assert ranks == oracle_ranks([votes] * len(votes))

    @settings(max_examples=60, deadline=None)
    @given(scores=score_matrices(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])))
    def test_compare_pick_is_first_non_own_entry(self, scores):
        m = len(scores)
        records = [make_record(acc_id="a", title=f"pick{i}") for i in range(m)]
        groups = group_by_accommodation(records)
        rows = topic_overlap_report(
            groups, lambda g: scores, lambda g: scores.T, {}, n_samples=m, seed=0
        )
        titles = [f"pick{i}" for i in range(m)]
        for row in rows:
            j = row.context_index
            for matrix, text in ((scores, row.model_text), (scores.T, row.baseline_text)):
                order = sorted(range(m), key=lambda i: (-matrix[j][i], i))
                expected = next(i for i in order if i != j)
                assert text.startswith(titles[expected] + "\n")


def marker_model():
    """Dual encoder whose logit is positive exactly for (country Ci, review markeri)."""
    tokens = ("c0", "c1", "c2", "marker0", "marker1", "marker2", UNK)
    vocab = Vocabulary(tokens, min_frequency=1, max_size=10)
    ctx_embedding = np.zeros((len(tokens), 3))
    rev_embedding = np.zeros((len(tokens), 3))
    for i in range(3):
        ctx_embedding[i, i] = 100.0
        rev_embedding[3 + i, i] = 100.0

    def params(embedding):
        return EncoderParams(embedding=embedding, projection=np.eye(3), bias=np.zeros(3))

    return DualEncoder(vocab=vocab, context=params(ctx_embedding), review=params(rev_embedding))


class TestRankGroup:
    def test_marker_token_scorer(self):
        records = [
            make_record(acc_id="a", title=f"marker{i}", country=f"C{i}") for i in range(3)
        ]
        group = group_by_accommodation(records)[0]
        ranks = model_rank_group(marker_model(), group)
        assert all(r == 1 for r in ranks)

    def test_group_too_small(self):
        group = group_by_accommodation([make_record()])[0]
        with pytest.raises(ValueError):
            model_rank_group(marker_model(), group)


class TestVotesBaseline:
    def test_vote_sort(self):
        records = [
            make_record(acc_id="a", votes=5, title="r0"),
            make_record(acc_id="a", votes=0, title="r1"),
            make_record(acc_id="a", votes=2, title="r2"),
        ]
        group = group_by_accommodation(records)[0]
        ranks = helpful_votes_ranking(group)
        # one shared ordering: review i sits at position ranks[i]
        assert tuple(np.argsort(ranks)) == (0, 2, 1)
        assert ranks.tolist() == [1, 3, 2]

    def test_all_zero_votes_keeps_input_order(self):
        records = [make_record(acc_id="a", title=f"r{i}") for i in range(4)]
        group = group_by_accommodation(records)[0]
        ranks = helpful_votes_ranking(group)
        assert tuple(np.argsort(ranks)) == (0, 1, 2, 3)

    def test_large_vote_count_first(self):
        records = [
            make_record(acc_id="a", votes=0, title="r0"),
            make_record(acc_id="a", votes=91, title="r1"),
        ]
        group = group_by_accommodation(records)[0]
        assert tuple(np.argsort(helpful_votes_ranking(group))) == (1, 0)


class TestMetrics:
    def test_all_rank_one(self):
        groups = [np.array([1, 1, 1])]
        assert mrr(groups) == 1.0

    def test_hand_case(self):
        groups = [np.array([1, 2, 4])]  # three contexts of a 5-review group
        assert mrr(groups) == pytest.approx(0.5833333333333334, abs=1e-9)

    def test_macro_average_over_accommodations(self):
        groups = [
            np.array([1, 1]),  # MRR 1.0
            np.array([2, 2]),  # MRR 0.5
        ]
        assert mrr(groups) == pytest.approx(0.75)
        assert per_accommodation_mrr(groups) == [1.0, 0.5]

    def test_precision_hand_case(self):
        groups = [np.array([1, 11, 5])]  # three contexts of a 12-review group
        assert precision_at_k(groups, 10) == pytest.approx(2 / 3)
        assert precision_at_k(groups, 1) == pytest.approx(1 / 3)

    def test_precision_monotone_in_k(self):
        rng = np.random.default_rng(0)
        groups = []
        for _ in range(10):
            m = int(rng.integers(2, 12))
            groups.append(rank_from_scores(rng.uniform(size=(m, m))))
        values = [precision_at_k(groups, k) for k in range(1, 13)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_bounds(self):
        rng = np.random.default_rng(1)
        groups = [rank_from_scores(rng.uniform(size=(6, 6))) for _ in range(5)]
        assert 0.0 <= mrr(groups) <= 1.0
        assert 0.0 <= precision_at_k(groups, 3) <= 1.0

    def test_brute_force_agreement(self):
        # independent recomputation: re-sort copies, explicit double loop
        rng = np.random.default_rng(7)
        groups = []
        matrices = []
        for _ in range(100):
            m = int(rng.integers(2, 31))
            scores = rng.uniform(size=(m, m))
            matrices.append(scores)
            groups.append(rank_from_scores(scores))

        def brute_mrr(mats):
            accs = []
            for scores in mats:
                m = scores.shape[0]
                total = 0.0
                for j in range(m):
                    pairs = sorted(
                        [(-scores[j][i], i) for i in range(m)]
                    )
                    rank = [i for _, i in pairs].index(j) + 1
                    total += 1.0 / rank
                accs.append(total / m)
            return sum(accs) / len(accs)

        def brute_precision(mats, k):
            accs = []
            for scores in mats:
                m = scores.shape[0]
                hits = 0
                for j in range(m):
                    pairs = sorted([(-scores[j][i], i) for i in range(m)])
                    rank = [i for _, i in pairs].index(j) + 1
                    hits += 1 if rank <= k else 0
                accs.append(hits / m)
            return sum(accs) / len(accs)

        assert mrr(groups) == brute_mrr(matrices)
        for k in (1, 5, 10):
            assert precision_at_k(groups, k) == brute_precision(matrices, k)

    def test_random_scorer_expectation_formula(self):
        assert random_scorer_expectation(10) == pytest.approx(0.2928968, abs=1e-6)
        assert random_scorer_expectation(1) == 1.0

    def test_random_scorer_expectation_empirical(self):
        m = 10
        rng = np.random.default_rng(123)
        trials = 10_000
        values = np.empty(trials)
        for t in range(trials):
            scores = rng.uniform(size=m)
            order = sorted(range(m), key=lambda i: (-scores[i], i))
            values[t] = 1.0 / (order.index(0) + 1)
        se = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - random_scorer_expectation(m)) < 3 * se


class TestAverageRanks:
    def test_simple(self):
        assert average_ranks([10.0, 30.0, 20.0]) == [1.0, 3.0, 2.0]

    def test_ties_share_average(self):
        assert average_ranks([1.0, 1.0, 2.0]) == [1.5, 1.5, 3.0]
        assert average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]


class TestFriedman:
    def test_concordant_fixture(self):
        # three blocks, identical method ordering: rank sums 3, 6, 9
        scores = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.1, 0.3, 0.9]])
        result = friedman_test(scores)
        assert result.rank_sums == [3.0, 6.0, 9.0]
        assert result.statistic == pytest.approx(6.0, abs=1e-12)
        assert result.df == 2
        assert result.p_value == pytest.approx(math.exp(-3.0), abs=1e-6)

    def test_all_tied(self):
        scores = np.full((4, 3), 0.5)
        result = friedman_test(scores)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            friedman_test(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            friedman_test(np.zeros((3, 1)))


class TestChi2Sf:
    # scipy's regularized upper incomplete gamma function is the oracle:
    # P(X > x) = Q(df/2, x/2).
    @settings(max_examples=500, deadline=None)
    @given(df=st.integers(1, 12), x=st.floats(0.0, 200.0))
    def test_matches_gammaincc(self, df, x):
        expected = float(gammaincc(df / 2.0, x / 2.0))
        assert abs(chi2_sf(x, df) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("df", [1, 2, 3, 12, 999, 2000])
    def test_zero_is_exactly_one(self, df):
        assert chi2_sf(0.0, df) == 1.0

    @pytest.mark.parametrize("df", [1600, 2000, 2501, 3001])
    @pytest.mark.parametrize("offset", [-60.0, 0.0, 60.0])
    def test_many_degrees_of_freedom(self, df, offset):
        x = df + offset
        assert math.exp(-x / 2.0) == 0.0  # a sum scaled by e^(-x/2) would read 0
        expected = float(gammaincc(df / 2.0, x / 2.0))
        assert 0.0 < expected < 1.0
        assert abs(chi2_sf(x, df) - expected) <= 1e-10 * expected


class TestDunn:
    def test_fixture_z(self):
        scores = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.1, 0.3, 0.9]])
        result = dunn_posthoc(scores)
        # best method has rank mean 3, worst has 1
        assert result.z[2, 0] == pytest.approx(2.449, abs=1e-3)
        assert result.p[2, 0] == pytest.approx(0.0143, abs=1e-4)
        assert result.p_adjusted[2, 0] == pytest.approx(3 * result.p[2, 0], abs=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=(6, 4))
        result = dunn_posthoc(scores)
        assert np.allclose(result.z, -result.z.T)

    def test_identical_columns(self):
        col = np.linspace(0.1, 0.9, 5)
        scores = np.column_stack([col, col, col + 0.05])
        result = dunn_posthoc(scores)
        assert result.z[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert result.p[0, 1] == pytest.approx(1.0)


class TestEvaluateMethods:
    def groups(self):
        records = []
        for a in range(3):
            for i in range(4):
                records.append(
                    make_record(acc_id=f"acc{a}", title=f"r{a}{i}", votes=i)
                )
        return group_by_accommodation(records)

    def test_report_structure(self):
        def perfect(group):
            return np.ones(len(group), dtype=int)

        report = evaluate_methods(
            [("votes", helpful_votes_ranking), ("perfect", perfect)],
            self.groups(),
        )
        assert [m.name for m in report.methods] == ["votes", "perfect"]
        assert report.methods[1].mean["mrr"] == 1.0
        assert report.friedman is not None
        assert report.dunn is not None
        for method in report.methods:
            for metric, value in method.mean.items():
                assert 0.0 <= value <= 1.0, metric

    def test_single_method_no_significance(self):
        report = evaluate_methods([("votes", helpful_votes_ranking)], self.groups())
        assert report.friedman is None
        assert report.dunn is None

    def test_formatted_report_stable(self):
        report = evaluate_methods([("votes", helpful_votes_ranking)], self.groups())
        text = format_eval_report(report)
        assert text == format_eval_report(report)
        header, first = text.split("\n")[:2]
        assert header == "method\tmetric\tmean\tstd"
        assert first.startswith("votes\tmrr\t")

    def test_model_ranker_runs(self):
        records = [make_record(acc_id="a", title=f"review {i}") for i in range(4)]
        group = group_by_accommodation(records)[0]
        texts = [[f"review {i}"] for i in range(4)]
        vocab = build_vocabulary(texts, 1, 100)
        model = DualEncoder(
            vocab=vocab,
            context=init_params(d=8, d_e=8, vocab_size=len(vocab), seed=0),
            review=init_params(d=8, d_e=8, vocab_size=len(vocab), seed=1),
        )
        ranks = model_rank_group(model, group)
        assert len(ranks) == 4
        assert all(1 <= r <= 4 for r in ranks)


LEXICON_TEXT = """\
# topics for comparison reports
location: location, central, close to
staff: staff, host, friendly
food: breakfast, restaurant, food
"""


class TestTopics:
    def test_parse_lexicon(self):
        lex = parse_lexicon(LEXICON_TEXT)
        assert set(lex) == {"location", "staff", "food"}
        assert lex["location"] == ["location", "central", "close to"]

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_lexicon("no separator line")
        with pytest.raises(ValueError):
            parse_lexicon("topic:")
        with pytest.raises(ValueError):
            parse_lexicon(": a, b")

    def test_detect_topics(self):
        lex = parse_lexicon(LEXICON_TEXT)
        assert detect_topics("great location and friendly staff", lex) == {
            "location",
            "staff",
        }
        assert detect_topics("GREAT LOCATION", lex) == {"location"}
        assert detect_topics("nothing relevant here", lex) == set()
        assert detect_topics("anything", {}) == set()

    def test_multiword_keyword_requires_adjacency(self):
        lex = {"location": ["close to"]}
        assert detect_topics("close to the beach", lex) == {"location"}
        assert detect_topics("the pool is close, similar to others", lex) == set()


class TestOverlapReport:
    def overlap_groups(self):
        records = []
        for a in range(2):
            for i, gt in enumerate(GuestType):
                records.append(
                    make_record(
                        acc_id=f"acc{a}",
                        title=f"review {a} {i}",
                        positive="great location" if i % 2 == 0 else "friendly staff",
                        guest_type=gt,
                    )
                )
        return group_by_accommodation(records)

    def perfect_scorer(self, group):
        return np.eye(len(group))

    def test_excludes_own_review(self):
        groups = self.overlap_groups()
        lex = parse_lexicon(LEXICON_TEXT)
        rows = topic_overlap_report(
            groups, self.perfect_scorer, self.perfect_scorer, lex, n_samples=4, seed=0
        )
        assert len(rows) == 4
        for row in rows:
            assert row.model_text != row.original_text
            assert row.baseline_text != row.original_text

    def test_stratified_two_per_type(self):
        groups = self.overlap_groups()
        lex = parse_lexicon(LEXICON_TEXT)
        rows = topic_overlap_report(
            groups,
            self.perfect_scorer,
            self.perfect_scorer,
            lex,
            n_samples=8,
            seed=1,
            stratify=True,
        )
        counts = {}
        for row in rows:
            counts[row.guest_type] = counts.get(row.guest_type, 0) + 1
        assert counts == {gt.label: 2 for gt in GuestType}

    def test_intersections_counted(self):
        groups = self.overlap_groups()
        lex = parse_lexicon(LEXICON_TEXT)
        rows = topic_overlap_report(
            groups, self.perfect_scorer, self.perfect_scorer, lex, n_samples=2, seed=2
        )
        for row in rows:
            assert row.model_common == row.original_topics & row.model_topics
        text = format_overlap_table(rows)
        assert "common" in text

    def test_bad_score_matrix_rejected(self):
        groups = self.overlap_groups()
        lex = parse_lexicon(LEXICON_TEXT)
        for bad in (lambda g: np.eye(len(g) + 1), lambda g: np.full((len(g), len(g)), np.nan)):
            with pytest.raises(ValueError):
                topic_overlap_report(groups, bad, self.perfect_scorer, lex, n_samples=2, seed=0)

    def test_deterministic(self):
        groups = self.overlap_groups()
        lex = parse_lexicon(LEXICON_TEXT)
        a = topic_overlap_report(
            groups, self.perfect_scorer, self.perfect_scorer, lex, n_samples=3, seed=9
        )
        b = topic_overlap_report(
            groups, self.perfect_scorer, self.perfect_scorer, lex, n_samples=3, seed=9
        )
        assert a == b
