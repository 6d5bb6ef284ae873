import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from revrank.dataset import GuestType, group_by_accommodation, split_dataset
from revrank.encoder import (
    MAX_TOKENS,
    EncoderGradients,
    build_vocabulary,
    init_params,
    load_checkpoint,
    tokenize,
)
from revrank.evaluation import model_rank_group, mrr, record_ids
from revrank.config import config_to_text, parse_config_file
from revrank.synthgen import SynthConfig, generate
from revrank.textualize import record_tokens, serialize_record
from revrank.trainer import (
    ADAMW_BLOCK_ROWS,
    PRESETS,
    AdamWState,
    TrainConfig,
    initialize_model,
    lr_schedule,
    optimizer_step,
    train,
)

from test_dataset import make_record

SEGMENT_WORDS = {
    GuestType.SOLO_TRAVELLER: "quiet desk wifi",
    GuestType.COUPLE: "romantic terrace sunset",
    GuestType.GROUP: "spacious lounge games",
    GuestType.FAMILY_WITH_CHILDREN: "playground cots buffet",
}


def learnable_records(n_acc=6, per_type=2):
    """Tiny corpus where review text encodes the guest type directly."""
    records = []
    for a in range(n_acc):
        for gt, words in SEGMENT_WORDS.items():
            for k in range(per_type):
                records.append(
                    make_record(
                        acc_id=f"acc{a}",
                        title=f"stay {a} {k}",
                        positive=words,
                        negative="",
                        guest_type=gt,
                        country=f"C{a}",
                        acc_score=7.5,
                    )
                )
    return records


def synthetic_parts(fractions, **synth):
    """Train and valid records of a split synthetic corpus."""
    groups = group_by_accommodation(generate(SynthConfig(**synth)))
    parts = split_dataset(groups, fractions, seed=0)
    return [[r for g in part for r in g.records] for part in parts[:2]]


class TestTrainConfig:
    def test_presets(self):
        paper = PRESETS["paper"]
        assert paper.learning_rate == pytest.approx(3e-5)
        assert paper.weight_decay == pytest.approx(0.01)
        assert paper.warmup_fraction == pytest.approx(0.05)
        assert paper.epochs == 4
        assert paper.batch_size == 64
        desk = PRESETS["desk"]
        assert desk.learning_rate == pytest.approx(1e-2)
        assert desk.batch_size == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(loss="hinge")
        with pytest.raises(ValueError):
            TrainConfig(sampler="stratified")
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=bad)
        for bad in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="weight_decay"):
                TrainConfig(weight_decay=bad)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps"):
                TrainConfig(eps=bad)

    def test_config_text_round_trip(self, tmp_path):
        config = TrainConfig(learning_rate=3e-5, loss="infonce", seed=7)
        path = tmp_path / "c.cfg"
        path.write_text(config_to_text(config), encoding="utf-8")
        overrides = parse_config_file(TrainConfig, path)
        assert replace(TrainConfig(), **overrides) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("momentum = 0.9\n", encoding="utf-8")
        with pytest.raises(ValueError, match="momentum"):
            parse_config_file(TrainConfig, path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nepochs = 2\n", encoding="utf-8")
        assert parse_config_file(TrainConfig, path) == {"epochs": 2}


class TestLrSchedule:
    def test_step_zero_is_zero(self):
        assert lr_schedule(0, 100, 1.0, 0.05) == 0.0

    def test_ramp_fraction(self):
        # warmup steps = ceil(0.05 * 100) = 5
        assert lr_schedule(2, 100, 1.0, 0.05) == pytest.approx(0.4)
        assert lr_schedule(5, 100, 1.0, 0.05) == 1.0
        assert lr_schedule(73, 100, 1.0, 0.05) == 1.0

    def test_no_warmup(self):
        assert lr_schedule(0, 10, 0.5, 0.0) == 0.5

    def test_bounds(self):
        with pytest.raises(ValueError):
            lr_schedule(11, 10, 1.0, 0.1)
        with pytest.raises(ValueError):
            lr_schedule(0, 0, 1.0, 0.1)


def scalar_params(value=1.0):
    params = init_params(d=1, d_e=1, vocab_size=1, seed=0)
    params.embedding[:] = value
    params.projection[:] = value
    params.bias[:] = value
    return params


def grads_like(params, value):
    return EncoderGradients(
        rows=np.arange(params.vocab_size),
        values=np.full_like(params.embedding, value),
        projection=np.full_like(params.projection, value),
        bias=np.full_like(params.bias, value),
        vocab_size=params.vocab_size,
    )


class TestOptimizerStep:
    def test_zero_grad_zero_decay_fixed_point(self):
        params = scalar_params(3.0)
        state = AdamWState.zeros_like(params)
        config = TrainConfig(weight_decay=0.0)
        for t in (1, 2, 3):
            optimizer_step(params, grads_like(params, 0.0), state, t, lr=0.1, config=config)
        assert params.embedding[0, 0] == 3.0
        assert params.bias[0] == 3.0

    def test_first_step_moves_by_lr(self):
        params = scalar_params(1.0)
        state = AdamWState.zeros_like(params)
        config = TrainConfig(weight_decay=0.0)
        optimizer_step(params, grads_like(params, 1.0), state, 1, lr=0.1, config=config)
        assert params.embedding[0, 0] == pytest.approx(0.9, abs=1e-6)

    def test_decoupled_decay_only(self):
        params = scalar_params(2.0)
        state = AdamWState.zeros_like(params)
        config = TrainConfig(weight_decay=0.01)
        optimizer_step(params, grads_like(params, 0.0), state, 1, lr=0.1, config=config)
        assert params.embedding[0, 0] == pytest.approx(2.0 * (1 - 0.001))

    def test_nonfinite_gradient_aborts(self):
        params = scalar_params()
        state = AdamWState.zeros_like(params)
        with pytest.raises(FloatingPointError, match="embedding"):
            optimizer_step(
                params, grads_like(params, np.nan), state, 1, lr=0.1, config=TrainConfig()
            )
        # It changes nothing, no chunk flag included.  Chunk 0 is reached by
        # the first step; the NaN step names a row of chunk 1.
        params = init_params(d=2, d_e=3, vocab_size=ADAMW_BLOCK_ROWS + 7, seed=0)
        state = AdamWState.zeros_like(params)
        grads = grads_like(params, 0.5)
        grads.rows, grads.values = grads.rows[:4], grads.values[:4]
        optimizer_step(params, grads, state, 1, lr=0.1, config=TrainConfig())
        params_before = params.copy()
        m_before = {name: block.copy() for name, block in state.m.items()}
        v_before = {name: block.copy() for name, block in state.v.items()}
        assert state.live_chunks.tolist() == [True, False]
        grads.rows = np.array([2, ADAMW_BLOCK_ROWS + 1])
        grads.values = np.array([[0.5, 0.5, 0.5], [0.5, np.nan, 0.5]])
        with pytest.raises(FloatingPointError, match="embedding"):
            optimizer_step(params, grads, state, 2, lr=0.1, config=TrainConfig())
        assert state.live_chunks.tolist() == [True, False]
        for now, then in ((params.blocks(), params_before.blocks()),
                          (state.m, m_before), (state.v, v_before)):
            for name, block in then.items():
                assert now[name].tobytes() == block.tobytes()


def desk_config(**kw):
    base = dict(
        learning_rate=1e-2,
        epochs=3,
        batch_size=8,
        d=16,
        d_e=16,
        seed=0,
        loss="bce",
        sampler="in_accommodation",
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_loss_decreases_on_learnable_corpus(self):
        records = learnable_records()
        result = train(records, [], desk_config())
        assert result.epochs[-1].mean_loss < result.epochs[0].mean_loss

    def test_zero_epochs_returns_initialization(self):
        records = learnable_records(n_acc=2, per_type=1)
        config = desk_config(epochs=0)
        result = train(records, [], config)
        fresh, _ = initialize_model(records, config)
        assert np.array_equal(result.model.context.embedding, fresh.context.embedding)
        assert np.array_equal(result.best_model.review.projection, fresh.review.projection)
        assert result.epochs == []

    def test_deterministic_checkpoints(self, tmp_path):
        records = learnable_records(n_acc=3, per_type=1)
        valid = learnable_records(n_acc=2, per_type=1)
        config = desk_config(epochs=2)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        train(records, valid, config, out_dir=a_dir)
        train(records, valid, config, out_dir=b_dir)
        for name in ("final.npz", "best.npz"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name
        assert (a_dir / "vocabulary.txt").read_bytes() == (b_dir / "vocabulary.txt").read_bytes()
        # log lines identical except for the wall-clock column
        strip = lambda text: [l.rsplit(" seconds=", 1)[0] for l in text.splitlines()]
        assert strip((a_dir / "train_log.txt").read_text()) == strip(
            (b_dir / "train_log.txt").read_text()
        )

    def test_validation_tracking(self):
        records = learnable_records()
        valid = learnable_records(n_acc=3, per_type=1)
        result = train(records, valid, desk_config(epochs=3))
        assert result.best_epoch is not None
        mrrs = [s.val_mrr for s in result.epochs]
        assert all(v is not None and 0.0 <= v <= 1.0 for v in mrrs)
        assert max(mrrs) == mrrs[result.best_epoch - 1]

    def test_zero_epochs_best_checkpoint_is_final(self, tmp_path):
        records = learnable_records(n_acc=2, per_type=1)
        valid = learnable_records(n_acc=2, per_type=1)
        result = train(records, valid, desk_config(epochs=0), out_dir=tmp_path)
        assert result.best_epoch is None
        assert (tmp_path / "best.npz").read_bytes() == (tmp_path / "final.npz").read_bytes()

    def test_last_epoch_best_is_final_model(self, tmp_path):
        # The first validated epoch improves on nothing, so it is best.
        records = learnable_records(n_acc=2, per_type=1)
        valid = learnable_records(n_acc=2, per_type=1)
        result = train(records, valid, desk_config(epochs=1), out_dir=tmp_path)
        assert result.best_epoch == 1
        assert result.best_model is result.model
        assert (tmp_path / "best.npz").read_bytes() == (tmp_path / "final.npz").read_bytes()

    def test_best_model_replays_best_epoch(self):
        # Without warmup the learning rate is constant, so a run stopped at
        # best_epoch replays the first epochs of the longer run.
        train_part, valid_part = synthetic_parts((0.5, 0.5, 0.0), n_accommodations=16, seed=1)
        config = desk_config(epochs=3, warmup_fraction=0.0, loss="infonce", learning_rate=1e-3)
        result = train(train_part, valid_part, config)
        assert result.best_epoch == 2  # so a best model aliased to the live one would differ
        assert result.best_model is not result.model
        replay = train(train_part, valid_part, replace(config, epochs=2)).model
        for tower in ("context", "review"):
            best, want = getattr(result.best_model, tower), getattr(replay, tower)
            for name, array in best.blocks().items():
                assert array.tobytes() == want.blocks()[name].tobytes(), (tower, name)
        assert result.model.review.embedding.tobytes() != replay.review.embedding.tobytes()

    def test_vocabulary_counted_from_a_stream_of_records(self):
        # Only one record's token lists are alive at a time, never all of
        # them; every other text holds references to one string per distinct
        # token, and then integer ids.
        records = generate(SynthConfig(n_accommodations=100, reviews_per_accommodation=(12, 12)))
        tracemalloc.start()
        try:
            token_lists = [tokenize(text) for r in records for text in serialize_record(r)]
            lists_size = tracemalloc.get_traced_memory()[0]
            del token_lists
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            initialize_model(records, TrainConfig())
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * lists_size

    def test_one_tokenization_gives_the_vocabulary_and_record_ids(self):
        # The vocabulary counts every token, truncation keeps the first
        # MAX_TOKENS of a text, and a rare or cut token maps to UNK.
        records = generate(SynthConfig(n_accommodations=8, reviews_per_accommodation=(3, 5)))
        long_text = " ".join(f"w{i % 150}" for i in range(3 * MAX_TOKENS))
        records[1] = replace(records[1], review=replace(records[1].review,
                                                        review_positive=long_text))
        assert max(len(tokens) for tokens in record_tokens(records[1])) > MAX_TOKENS
        for config in (TrainConfig(), TrainConfig(min_frequency=3, max_vocab_size=40)):
            model, ids = initialize_model(records, config)
            stream = (tokens for record in records for tokens in record_tokens(record))
            assert model.vocab == build_vocabulary(stream, config.min_frequency, config.max_vocab_size)
            assert ids == record_ids(model.vocab, records)

    def test_peak_memory_is_bounded(self, tmp_path):
        # The model (2 tables) and the AdamW moments (4) are 6 |V| x d_e
        # tables; the best epoch is the last, so there is no best copy.
        # tracemalloc sees numpy's tables and Python's token lists.
        lexicon = tuple(f"w{i}" for i in range(20000))
        train_part, valid_part = synthetic_parts(
            (0.8, 0.1, 0.1), n_accommodations=30, background_lexicon=lexicon,
            signal_strength=0.2, seed=1,
        )
        tracemalloc.start()
        try:
            result = train(train_part, valid_part, TrainConfig(epochs=1), out_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = result.model.context.embedding
        assert table.shape[0] > 2000 and result.best_epoch == 1
        assert peak < 8 * table.nbytes

    def test_validation_mrr_matches_group_ranking(self):
        # validation ranks pre-tokenized ids; evaluation ranks each group
        records = learnable_records()
        valid = learnable_records(n_acc=3, per_type=1)
        result = train(records, valid, desk_config(epochs=2))
        groups = [g for g in group_by_accommodation(valid) if len(g) >= 2]
        expected = mrr([model_rank_group(result.model, g) for g in groups])
        assert result.epochs[-1].val_mrr == expected

    def test_checkpoint_round_trip(self, tmp_path):
        records = learnable_records(n_acc=3, per_type=1)
        result = train(records, [], desk_config(epochs=1), out_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / "final.npz")
        assert np.array_equal(loaded.context.embedding, result.model.context.embedding)
        assert np.array_equal(loaded.review.bias, result.model.review.bias)
        assert loaded.vocab == result.model.vocab

    def test_checkpoint_tokens_are_plain_str(self, tmp_path):
        records = learnable_records(n_acc=3, per_type=1)
        result = train(records, [], desk_config(epochs=0), out_dir=tmp_path)
        tokens = load_checkpoint(tmp_path / "final.npz").vocab.tokens
        assert tokens == result.model.vocab.tokens
        assert all(type(t) is str for t in tokens)

    def test_random_sampler_runs(self):
        records = learnable_records(n_acc=3, per_type=1)
        result = train(records, [], desk_config(sampler="random", epochs=1))
        assert len(result.epochs) == 1
        assert math.isfinite(result.epochs[0].mean_loss)

    def test_infonce_runs_and_respects_floor(self):
        records = learnable_records(n_acc=3, per_type=1)
        result = train(records, [], desk_config(loss="infonce", epochs=2))
        from revrank.contrastive import info_nce_floor

        # every batch loss is floored, so the epoch mean is floored too
        assert result.epochs[-1].mean_loss > info_nce_floor(2) - 1e-9

    def test_config_echo_written(self, tmp_path):
        records = learnable_records(n_acc=2, per_type=1)
        config = desk_config(epochs=1)
        train(records, [], config, out_dir=tmp_path)
        echoed = parse_config_file(TrainConfig, tmp_path / "config.txt")
        assert replace(TrainConfig(), **echoed) == config

    def test_empty_training_split_rejected(self):
        with pytest.raises(ValueError):
            train([], [], desk_config())

    def test_failed_save_leaves_no_partial_checkpoint(self, tmp_path, monkeypatch):
        records = learnable_records(n_acc=2, per_type=1)
        config = desk_config(epochs=1)
        kept = tmp_path / "kept"
        train(records, [], config, out_dir=kept)
        before = {p.name: p.read_bytes() for p in kept.iterdir()}

        def failing_write_array(fid, *args, **kwargs):
            fid.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np.lib.format, "write_array", failing_write_array)
        fresh = tmp_path / "fresh"
        for out_dir in (fresh, kept):
            with pytest.raises(OSError, match="disk full"):
                train(records, [], config, out_dir=out_dir)
        assert list(fresh.iterdir()) == []
        assert {p.name: p.read_bytes() for p in kept.iterdir()} == before
