"""Acceptance gate: ten numbered end-to-end checks with fixed tolerances.

Each test prints one ``criterion N: PASS/FAIL`` line (visible under
``pytest -s``) and then asserts, so a plain pytest run still fails loudly.
The suite exercises the package through its public API and the installed
command line, never through internals.
"""

import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import revrank
from revrank.contrastive import LOSSES, interaction_matrix
from revrank.dataset import (
    AccommodationContext,
    GuestContext,
    group_by_accommodation,
    load_csv,
    parse_guest_type,
    parse_month,
    Review,
    split_dataset,
    validate_statistics,
    write_csv,
)
from revrank.encoder import (
    encode_backward_batch_ids,
    encode_batch_ids,
    EncoderParams,
)
from revrank.evaluation import (
    dunn_posthoc,
    friedman_test,
    helpful_votes_ranking,
    model_rank_group,
    mrr,
    per_accommodation_mrr,
    precision_at_k,
    rank_from_scores,
    random_scorer_expectation,
)
from revrank.sampling import in_accommodation_epoch, random_epoch, verify_plan
from revrank.synthgen import generate, SynthConfig
from revrank.textualize import serialize_context, serialize_review
from revrank.trainer import initialize_model, PRESETS, train, TrainConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "serialization_golden.json"


def report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return float(np.abs(a - b).max() / denom)


# --- 1. gradient fidelity through the full encoder stack -------------------


def _random_instance(rng, n=4, d=8, d_e=8, vocab=10):
    def params():
        return EncoderParams(
            embedding=rng.normal(scale=0.5, size=(vocab, d_e)),
            projection=rng.normal(scale=0.5, size=(d_e, d)),
            bias=rng.normal(scale=0.5, size=d),
        )

    def ids():
        return [
            [int(t) for t in rng.integers(0, vocab, size=rng.integers(3, 8))]
            for _ in range(n)
        ]

    return params(), params(), ids(), ids()


def _composed_loss(loss_fn, cparams, rparams, ctx_ids, rev_ids):
    contexts = encode_batch_ids(cparams, ctx_ids)
    reviews = encode_batch_ids(rparams, rev_ids)
    return loss_fn(interaction_matrix(contexts, reviews))


def _fd_grad(value_fn, arr, h=1e-5):
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = value_fn()
        flat[i] = orig - h
        down = value_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def test_criterion_01_gradient_fidelity():
    rng = np.random.default_rng(11)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        cparams, rparams, ctx_ids, rev_ids = _random_instance(rng)
        for loss_fn in LOSSES.values():
            out = _composed_loss(loss_fn, cparams, rparams, ctx_ids, rev_ids)
            grads = {
                "context": encode_backward_batch_ids(cparams, ctx_ids, out.grad_contexts),
                "review": encode_backward_batch_ids(rparams, rev_ids, out.grad_reviews),
            }
            value = lambda: _composed_loss(loss_fn, cparams, rparams, ctx_ids, rev_ids).loss
            for side, params in (("context", cparams), ("review", rparams)):
                for name, arr in params.blocks().items():
                    fd = _fd_grad(value, arr)
                    worst = max(worst, rel_err(grads[side].blocks()[name], fd))
    elapsed = time.time() - t0
    report(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e} over 50 instances x 2 losses, {elapsed:.1f}s",
    )


# --- 2. loss value oracles --------------------------------------------------


def test_criterion_02_loss_oracles():
    flat = interaction_matrix(np.zeros((2, 2)), np.zeros((2, 2)))
    ln2 = math.log(2.0)
    err_flat = max(
        abs(LOSSES["infonce"](flat).loss - ln2), abs(LOSSES["bce"](flat).loss - ln2)
    )
    eye = interaction_matrix(np.eye(2), np.eye(2))
    err_nce = abs(LOSSES["infonce"](eye).loss - 0.58419)
    err_bce = abs(LOSSES["bce"](eye).loss - 0.50321)
    report(
        2,
        err_flat <= 1e-9 and err_nce <= 1e-4 and err_bce <= 1e-4,
        f"uniform err {err_flat:.1e}, identity infonce err {err_nce:.1e} "
        f"bce err {err_bce:.1e}",
    )


# --- 3. metric oracles ------------------------------------------------------


def test_criterion_03_metric_oracles():
    rng = np.random.default_rng(33)
    groups, brute_ranks = [], []
    for _ in range(100):
        m = int(rng.integers(2, 31))
        scores = rng.normal(size=(m, m))
        groups.append(rank_from_scores(scores))
        ranks = []
        for j in range(m):
            row = scores[j]
            ranks.append(1 + sum(1 for i in range(m) if (-row[i], i) < (-row[j], j)))
        brute_ranks.append(ranks)

    brute_mrr = sum(
        sum(1.0 / r for r in ranks) / len(ranks) for ranks in brute_ranks
    ) / len(brute_ranks)
    exact = mrr(groups) == brute_mrr
    for k in (1, 3, 10):
        brute_p = sum(
            sum(1 for r in ranks if r <= k) / len(ranks) for ranks in brute_ranks
        ) / len(brute_ranks)
        exact = exact and precision_at_k(groups, k) == brute_p

    # contexts 0, 1 and 3 of a 4-review group, all with the order (0, 1, 2, 3)
    hand = np.array([1, 2, 4])
    hand_err = abs(mrr([hand]) - 7.0 / 12.0)
    report(
        3,
        exact and hand_err <= 1e-9,
        f"100 groups exact for MRR and P@{{1,3,10}}, ranks [1,2,4] err {hand_err:.1e}",
    )


# --- 4. statistics oracles --------------------------------------------------


def test_criterion_04_statistics_oracles():
    fixture = np.array([[3.0, 2.0, 1.0]] * 3)
    fr = friedman_test(fixture)
    dunn = dunn_posthoc(fixture)
    i_best = int(np.argmax(fr.rank_means))
    i_worst = int(np.argmin(fr.rank_means))
    z = dunn.z[i_best, i_worst]
    chi_err = abs(fr.statistic - 6.0)
    p_err = abs(fr.p_value - math.exp(-3.0))
    z_err = abs(z - 2.449)
    report(
        4,
        chi_err <= 1e-9 and p_err <= 1e-6 and z_err <= 1e-3,
        f"chi2 err {chi_err:.1e}, p err {p_err:.1e}, z(best,worst)={z:.4f}",
    )


# --- 5. sampler properties --------------------------------------------------


def test_criterion_05_sampler_properties():
    violations = 0
    plans = 0
    for i in range(20):
        cfg = SynthConfig(
            n_accommodations=3 + (i % 5) * 2,
            reviews_per_accommodation=(10, 10 + i % 5),
            signal_strength=(i % 3) * 0.5,
            seed=100 + i,
        )
        records = generate(cfg)
        batch_size = (2, 3, 5, 16)[i % 4]
        for plan in (
            random_epoch(records, batch_size, seed=i),
            in_accommodation_epoch(group_by_accommodation(records), batch_size, seed=i),
        ):
            violations += len(verify_plan(plan, records).violations)
            plans += 1
    report(5, violations == 0, f"{violations} violations across {plans} epoch plans")


# --- 6. ordering reproduction on the planted-signal benchmark ---------------

VARIANTS = [
    ("in_accommodation", "infonce"),
    ("random", "infonce"),
    ("in_accommodation", "bce"),
    ("random", "bce"),
]


def _flatten(groups):
    return [r for g in groups for r in g.records]


def test_criterion_06_ordering_reproduction():
    t0 = time.time()
    per = {}
    votes0 = untrained0 = None
    for seed in (0, 1, 2):
        cfg = SynthConfig(
            n_accommodations=300,
            reviews_per_accommodation=(12, 12),
            signal_strength=0.9,
            seed=seed,
        )
        groups = group_by_accommodation(generate(cfg))
        train_g, valid_g, test_g = split_dataset(groups, (0.8, 0.1, 0.1), seed=seed)
        train_records, valid_records = _flatten(train_g), _flatten(valid_g)
        test_groups = [g for g in test_g if len(g) >= 2]
        variants = VARIANTS if seed == 0 else VARIANTS[:2]
        for sampler, loss in variants:
            config = replace(PRESETS["desk"], loss=loss, sampler=sampler, seed=seed)
            result = train(train_records, valid_records, config)
            per[(seed, sampler, loss)] = per_accommodation_mrr(
                [model_rank_group(result.best_model, g) for g in test_groups]
            )
        if seed == 0:
            votes0 = per_accommodation_mrr(
                [helpful_votes_ranking(g) for g in test_groups]
            )
            baseline = initialize_model(train_records, replace(PRESETS["desk"], seed=0))
            untrained0 = per_accommodation_mrr(
                [model_rank_group(baseline, g) for g in test_groups]
            )

    model0 = float(np.mean(per[(0, "in_accommodation", "infonce")]))
    margin_votes = model0 - float(np.mean(votes0))
    margin_untrained = model0 - float(np.mean(untrained0))
    ok_a = margin_votes >= 0.10 and margin_untrained >= 0.10

    gaps = [
        float(np.mean(per[(s, "in_accommodation", "infonce")]))
        - float(np.mean(per[(s, "random", "infonce")]))
        for s in (0, 1, 2)
    ]
    ok_b = float(np.mean(gaps)) >= 0.0

    n_blocks = len(per[(0, *VARIANTS[0])])
    matrix = np.array(
        [[per[(0, s, l)][i] for (s, l) in VARIANTS] for i in range(n_blocks)]
    )
    fr = friedman_test(matrix)
    ok_c = fr.p_value < 0.05

    elapsed = time.time() - t0
    report(
        6,
        ok_a and ok_b and ok_c and elapsed < 900.0,
        f"(a) margins votes {margin_votes:+.4f} untrained {margin_untrained:+.4f}; "
        f"(b) mean sampler gap {np.mean(gaps):+.4f}; "
        f"(c) Friedman chi2 {fr.statistic:.1f} p {fr.p_value:.1e}; {elapsed:.0f}s",
    )


# --- 7. random-baseline calibration -----------------------------------------


def test_criterion_07_random_calibration():
    cfg = SynthConfig(reviews_per_accommodation=(10, 10), signal_strength=0.0, seed=0)
    groups = group_by_accommodation(generate(cfg))
    train_g, valid_g, test_g = split_dataset(groups, (0.8, 0.1, 0.1), seed=0)
    result = train(
        _flatten(train_g), _flatten(valid_g), replace(PRESETS["desk"], seed=0)
    )
    per = per_accommodation_mrr(
        [model_rank_group(result.best_model, g) for g in test_g if len(g) >= 2]
    )
    mean = float(np.mean(per))
    se = float(np.std(per, ddof=1) / math.sqrt(len(per)))
    expected = random_scorer_expectation(10)
    diff = abs(mean - expected)
    report(
        7,
        diff <= 3.0 * se,
        f"test MRR {mean:.5f} vs H_10/10 {expected:.5f}, |diff| {diff:.1e} <= 3SE {3 * se:.1e}",
    )


# --- 8. end-to-end determinism ----------------------------------------------


def _run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(revrank.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "revrank", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, f"revrank {' '.join(args)}\n{proc.stderr}"


def _pipeline(base: Path):
    base.mkdir()
    corpus = base / "corpus.csv"
    ckpt = base / "ckpt"
    _run_cli(
        "gen-synthetic", "--out", str(corpus), "--accommodations", "60",
        "--reviews", "10", "--signal", "0.9", "--seed", "9",
    )
    _run_cli(
        "ingest", "--input", str(corpus), "--strict",
        "--report", str(base / "stats.txt"),
    )
    _run_cli(
        "train", "--data", str(corpus), "--out", str(ckpt), "--preset", "desk",
        "--epochs", "2", "--d", "16", "--d-e", "16", "--seed", "5",
    )
    _run_cli(
        "evaluate", "--checkpoint", str(ckpt / "best.npz"), "--data", str(corpus),
        "--methods", "model,votes,untrained", "--split", "0.8,0.1,0.1",
        "--part", "test", "--seed", "5", "--out", str(base / "report.txt"),
    )


def test_criterion_08_determinism(tmp_path):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    _pipeline(run_a)
    _pipeline(run_b)
    compared = [
        "corpus.csv",
        "stats.txt",
        "report.txt",
        "ckpt/best.npz",
        "ckpt/final.npz",
        "ckpt/config.txt",
        "ckpt/vocabulary.txt",
    ]
    identical = all(
        (run_a / name).read_bytes() == (run_b / name).read_bytes()
        for name in compared
    )
    strip = lambda p: re.sub(r"seconds=\S+", "seconds=_", p.read_text())
    logs_match = strip(run_a / "ckpt/train_log.txt") == strip(run_b / "ckpt/train_log.txt")
    report(
        8,
        identical and logs_match,
        f"{len(compared)} files byte-identical across runs, log identical modulo timing",
    )


# --- 9. schema fidelity of the generator ------------------------------------


def test_criterion_09_schema_fidelity(tmp_path):
    path = tmp_path / "synthetic.csv"
    write_csv(generate(SynthConfig()), path)
    loaded = load_csv(path, schema_mode="strict")
    stats = validate_statistics(loaded.records)
    delta = abs(stats.voted_fraction - 0.087)
    report(
        9,
        not loaded.rejections and delta <= 0.02,
        f"{len(loaded.rejections)} strict rejections, "
        f"voted fraction {stats.voted_fraction:.4f} (target 0.087 +/- 0.02)",
    )


# --- 10. serialization golden fixtures --------------------------------------


def _build_review(fields):
    return Review(
        review_title=fields["review_title"],
        review_positive=fields["review_positive"],
        review_negative=fields["review_negative"],
        review_score=fields["review_score"],
        review_helpful_votes=fields["review_helpful_votes"],
    )


def _build_context(fields):
    guest = GuestContext(
        guest_type=parse_guest_type(fields["guest_type"]),
        guest_country=fields["guest_country"],
        room_nights=fields["room_nights"],
        month=parse_month(fields["month"]),
    )
    accommodation = AccommodationContext(
        accommodation_id=fields["accommodation_id"],
        accommodation_type=fields["accommodation_type"],
        accommodation_score=fields["accommodation_score"],
        accommodation_country=fields["accommodation_country"],
        accommodation_star_rating=fields["accommodation_star_rating"],
        location_is_beach=fields["location_is_beach"],
        location_is_ski=fields["location_is_ski"],
        location_is_city_center=fields["location_is_city_center"],
    )
    return guest, accommodation


def test_criterion_10_serialization_golden():
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        cases = json.load(fh)
    mismatches = []
    for case in cases:
        if case["kind"] == "review":
            rendered = serialize_review(_build_review(case["fields"]))
        else:
            rendered = serialize_context(*_build_context(case["fields"]))
        if rendered != case["expected"]:
            mismatches.append(case["name"])
    report(
        10,
        len(cases) == 10 and not mismatches,
        f"{len(cases)} fixtures byte-exact" if not mismatches
        else f"mismatches: {', '.join(mismatches)}",
    )
