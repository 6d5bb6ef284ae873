import dataclasses
import math
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from revrank.dataset import (
    GuestType,
    group_by_accommodation,
    load_csv,
    write_csv,
)
from revrank.evaluation import mrr, random_scorer_expectation, rank_from_scores
from revrank.synthgen import (
    DEFAULT_BACKGROUND_LEXICON,
    DEFAULT_SEGMENT_LEXICONS,
    SynthConfig,
    bayes_optimal_mrr,
    generate,
)

SMALL = dict(n_accommodations=40, reviews_per_accommodation=(10, 10))

TINY_SEGMENTS = {
    GuestType.SOLO_TRAVELLER: ("aa", "bb"),
    GuestType.COUPLE: ("cc", "dd"),
    GuestType.GROUP: ("ee", "ff"),
    GuestType.FAMILY_WITH_CHILDREN: ("gg", "hh"),
}
TINY_BACKGROUND = ("ww", "xx", "yy", "zz")


def review_tokens(record):
    parts = [record.review.review_title, record.review.review_positive,
             record.review.review_negative]
    return " ".join(p for p in parts if p).split()


def token_log_likelihood(tokens, guest_type, config):
    """Log-probability of a token sequence under one guest type's mixture."""
    segment = set(config.segment_lexicons[guest_type])
    background = set(config.background_lexicon)
    seg_p = config.signal_strength / len(segment)
    bg_p = (1.0 - config.signal_strength) / len(background)
    total = 0.0
    for token in tokens:
        p = (seg_p if token in segment else 0.0) + (bg_p if token in background else 0.0)
        if p == 0.0:
            return -math.inf
        total += math.log(p)
    return total


def likelihood_ranker_mrr(config, records):
    """MRR of ranking each group's reviews by P(tokens | the context's guest type)."""
    rank_vectors = []
    for group in group_by_accommodation(records):
        tokens = [review_tokens(r) for r in group.records]
        scores = [[token_log_likelihood(t, r.guest.guest_type, config) for t in tokens]
                  for r in group.records]
        rank_vectors.append(rank_from_scores(np.array(scores)))
    return mrr(rank_vectors)


def exact_harmonic(n):
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def posterior_ranker_mrr(config, records):
    """Exact expected MRR of ranking by the posterior P(guest type | tokens).

    Likelihoods and posteriors are fractions; a tie set of t reviews below
    g better ones scores its expected reciprocal rank (H_{g+t} - H_g) / t.
    Groups of fewer than 2 reviews are left out.
    """
    signal = Fraction(config.signal_strength)
    background = config.background_lexicon

    def likelihood(tokens, guest_type):
        segment = config.segment_lexicons[guest_type]
        p = Fraction(1)
        for token in tokens:
            p *= ((signal / len(segment) if token in segment else 0)
                  + ((1 - signal) / len(background) if token in background else 0))
        return p

    group_means = []
    for group in group_by_accommodation(records):
        if len(group) < 2:
            continue
        likelihoods = [{gt: likelihood(review_tokens(r), gt) for gt in GuestType}
                       for r in group.records]
        total = Fraction(0)
        for j, record in enumerate(group.records):
            posterior = [lk[record.guest.guest_type] / sum(lk.values()) for lk in likelihoods]
            better = sum(p > posterior[j] for p in posterior)
            tied = sum(p == posterior[j] for p in posterior)
            total += (exact_harmonic(better + tied) - exact_harmonic(better)) / tied
        group_means.append(total / len(group))
    return sum(group_means) / len(group_means)


def with_token_appended(records, index, token):
    """``records`` with ``token`` appended to the positive text of review ``index``."""
    record = records[index]
    review = dataclasses.replace(record.review,
                                 review_positive=f"{record.review.review_positive} {token}")
    return records[:index] + [dataclasses.replace(record, review=review)] + records[index + 1:]


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SynthConfig()

    def test_bad_accommodation_count(self):
        with pytest.raises(ValueError, match="n_accommodations"):
            SynthConfig(n_accommodations=0)

    def test_bad_review_range(self):
        with pytest.raises(ValueError, match="reviews_per_accommodation"):
            SynthConfig(reviews_per_accommodation=(5, 3))

    def test_signal_strength_range(self):
        with pytest.raises(ValueError, match="signal_strength"):
            SynthConfig(signal_strength=1.5)

    @pytest.mark.parametrize("noise", [-0.1, math.inf, math.nan])
    def test_score_noise_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="score_noise"):
            SynthConfig(score_noise=noise)

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SynthConfig(background_lexicon=())

    def test_overlapping_lexicons_rejected(self):
        segments = dict(TINY_SEGMENTS)
        segments[GuestType.COUPLE] = ("cc", "ww")
        with pytest.raises(ValueError, match="disjoint"):
            SynthConfig(segment_lexicons=segments, background_lexicon=TINY_BACKGROUND)

    def test_missing_guest_type_rejected(self):
        segments = dict(TINY_SEGMENTS)
        del segments[GuestType.GROUP]
        with pytest.raises(ValueError, match="guest type"):
            SynthConfig(segment_lexicons=segments, background_lexicon=TINY_BACKGROUND)

    def test_multiword_lexicon_entry_rejected(self):
        with pytest.raises(ValueError, match="single clean token"):
            SynthConfig(background_lexicon=("fine", "not fine"))

    def test_default_lexicons_disjoint_and_sized(self):
        assert len(DEFAULT_BACKGROUND_LEXICON) == 40
        for lexicon in DEFAULT_SEGMENT_LEXICONS.values():
            assert len(lexicon) >= 20


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(seed=11, **SMALL)
        assert generate(cfg) == generate(cfg)

    def test_seed_changes_corpus(self):
        a = generate(SynthConfig(seed=0, **SMALL))
        b = generate(SynthConfig(seed=1, **SMALL))
        assert a != b

    def test_per_accommodation_streams_are_prefix_stable(self):
        # Each accommodation draws from its own derived seed, so growing the
        # corpus leaves earlier accommodations untouched.
        small = generate(SynthConfig(n_accommodations=3,
                                     reviews_per_accommodation=(5, 5), seed=7))
        large = generate(SynthConfig(n_accommodations=6,
                                     reviews_per_accommodation=(5, 5), seed=7))
        assert large[: len(small)] == small

    def test_group_count_and_sizes(self):
        cfg = SynthConfig(n_accommodations=25, reviews_per_accommodation=(3, 7), seed=2)
        groups = group_by_accommodation(generate(cfg))
        assert len(groups) == 25
        assert all(3 <= len(g) <= 7 for g in groups)

    def test_context_fields_in_range(self):
        for r in generate(SynthConfig(seed=3, **SMALL)):
            assert 1.0 <= r.review.review_score <= 10.0
            assert 2.4 <= r.accommodation.accommodation_score <= 10.0
            assert r.guest.room_nights >= 1
            assert r.review.review_helpful_votes >= 0

    def test_review_scores_echo_accommodation_score(self):
        records = generate(SynthConfig(seed=4, **SMALL))
        diffs = [abs(r.review.review_score - r.accommodation.accommodation_score)
                 for r in records]
        assert sum(diffs) / len(diffs) < 1.0

    def test_signal_one_tokens_all_from_own_segment(self):
        records = generate(SynthConfig(signal_strength=1.0, seed=5, **SMALL))
        for r in records:
            segment = set(DEFAULT_SEGMENT_LEXICONS[r.guest.guest_type])
            assert set(review_tokens(r)) <= segment

    def test_signal_zero_tokens_all_background(self):
        records = generate(SynthConfig(signal_strength=0.0, seed=5, **SMALL))
        background = set(DEFAULT_BACKGROUND_LEXICON)
        for r in records:
            assert set(review_tokens(r)) <= background

    def test_signal_zero_tokens_independent_of_guest_type(self):
        counts = {}
        for r in generate(SynthConfig(signal_strength=0.0, seed=0)):
            counts.setdefault(r.guest.guest_type, Counter()).update(review_tokens(r))
        tokens = sorted(set().union(*(set(c) for c in counts.values())))
        table = [[counts[g][t] for t in tokens]
                 for g in sorted(counts, key=lambda g: g.value)]
        _, p, _, _ = chi2_contingency(table)
        assert p > 0.01

    def test_vote_sparsity_near_planted_fraction(self):
        records = generate(SynthConfig(n_accommodations=4200, seed=0))
        assert len(records) >= 50000
        voted = sum(1 for r in records if r.review.review_helpful_votes > 0)
        assert abs(voted / len(records) - 0.087) <= 0.02

    def test_votes_heavy_tailed(self):
        records = generate(SynthConfig(seed=0))
        assert max(r.review.review_helpful_votes for r in records) >= 3

    def test_guest_types_roughly_uniform(self):
        records = generate(SynthConfig(seed=6))
        counts = Counter(r.guest.guest_type for r in records)
        for gt in GuestType:
            assert counts[gt] / len(records) == pytest.approx(0.25, abs=0.05)

    def test_strict_ingestion_round_trip(self):
        records = generate(SynthConfig(seed=8, **SMALL))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "synth.csv"
            write_csv(records, path)
            result = load_csv(path, schema_mode="strict")
        assert result.rejections == []
        assert result.records == records


class TestTokenLogLikelihood:
    def cfg(self, signal):
        return SynthConfig(segment_lexicons=dict(TINY_SEGMENTS),
                           background_lexicon=TINY_BACKGROUND,
                           signal_strength=signal)

    def test_hand_mixture(self):
        cfg = self.cfg(0.6)
        got = token_log_likelihood(["aa", "ww"], GuestType.SOLO_TRAVELLER, cfg)
        assert got == pytest.approx(math.log(0.6 / 2) + math.log(0.4 / 4), abs=1e-12)

    def test_cross_segment_token_impossible(self):
        cfg = self.cfg(0.6)
        assert token_log_likelihood(["cc"], GuestType.SOLO_TRAVELLER, cfg) == -math.inf

    def test_unknown_token_impossible(self):
        cfg = self.cfg(0.6)
        assert token_log_likelihood(["qq"], GuestType.SOLO_TRAVELLER, cfg) == -math.inf

    def test_background_only_at_signal_zero(self):
        cfg = self.cfg(0.0)
        got = token_log_likelihood(["ww", "ww"], GuestType.COUPLE, cfg)
        assert got == pytest.approx(2 * math.log(1 / 4), abs=1e-12)

    def test_segment_token_impossible_at_signal_zero(self):
        cfg = self.cfg(0.0)
        assert token_log_likelihood(["aa"], GuestType.SOLO_TRAVELLER, cfg) == -math.inf


class TestBayesOptimalMrr:
    def test_signal_zero_equals_random_expectation(self):
        cfg = SynthConfig(signal_strength=0.0, seed=0, **SMALL)
        expected = random_scorer_expectation(10)
        assert bayes_optimal_mrr(cfg) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_signal_strength(self):
        values = [bayes_optimal_mrr(SynthConfig(signal_strength=s, seed=0, **SMALL))
                  for s in (0.0, 0.5, 1.0)]
        assert values[0] <= values[1] <= values[2]

    def test_full_signal_substantially_above_random(self):
        cfg = SynthConfig(signal_strength=1.0, seed=0, **SMALL)
        assert bayes_optimal_mrr(cfg) > random_scorer_expectation(10) + 0.2

    def test_accepts_pregenerated_records(self):
        cfg = SynthConfig(signal_strength=0.5, seed=1, **SMALL)
        records = generate(cfg)
        assert bayes_optimal_mrr(cfg, records) == bayes_optimal_mrr(cfg)


class TestBayesCeilingClosedForm:
    def tiny(self, signal, seed):
        return SynthConfig(n_accommodations=30, reviews_per_accommodation=(1, 8),
                           segment_lexicons=dict(TINY_SEGMENTS),
                           background_lexicon=TINY_BACKGROUND,
                           signal_strength=signal, seed=seed)

    @pytest.mark.parametrize("signal", [0.0, 0.05, 0.1, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_exact_posterior_ranker(self, signal, seed):
        cfg = self.tiny(signal, seed)
        records = generate(cfg)
        assert bayes_optimal_mrr(cfg, records) == pytest.approx(
            float(posterior_ranker_mrr(cfg, records)), abs=1e-12)

    def test_above_likelihood_ranker_at_low_signal(self):
        cfg = SynthConfig(signal_strength=0.1, seed=0, **SMALL)
        records = generate(cfg)
        likelihood = likelihood_ranker_mrr(cfg, records)
        assert likelihood == pytest.approx(0.4751, abs=1e-4)
        assert bayes_optimal_mrr(cfg, records) > likelihood

    def test_single_review_accommodations_left_out(self):
        cfg = SynthConfig(n_accommodations=40, reviews_per_accommodation=(1, 3), seed=0)
        records = generate(cfg)
        groups = group_by_accommodation(records)
        kept = [r for g in groups if len(g) >= 2 for r in g.records]
        assert len(kept) < len(records)
        assert bayes_optimal_mrr(cfg, records) == bayes_optimal_mrr(cfg, kept)
        assert bayes_optimal_mrr(cfg, records) == pytest.approx(0.8815, abs=1e-4)
        singles = [g.records[0] for g in groups if len(g) == 1]
        with pytest.raises(ValueError, match="at least 2 reviews"):
            bayes_optimal_mrr(cfg, singles)

    def test_foreign_token_rejected(self):
        cfg = SynthConfig(seed=0, **SMALL)
        records = generate(cfg)
        records = with_token_appended(records, 3, "qq")
        with pytest.raises(ValueError, match="'synth-00000' review 3 by a .* names 'qq', in no"):
            bayes_optimal_mrr(cfg, records)

    def test_review_naming_another_guest_type_rejected(self):
        cfg = SynthConfig(seed=0, **SMALL)
        records = generate(cfg)
        other = next(gt for gt in GuestType if gt != records[3].guest.guest_type)
        records = with_token_appended(records, 3, DEFAULT_SEGMENT_LEXICONS[other][0])
        with pytest.raises(ValueError, match=f"review 3 by a .* guest names {other.value}$"):
            bayes_optimal_mrr(cfg, records)
