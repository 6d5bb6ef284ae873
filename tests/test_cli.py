import codecs
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import revrank
from revrank import cli
from revrank.cli import main
from revrank.dataset import load_csv, write_csv
from revrank.encoder import (
    DualEncoder,
    EncoderParams,
    init_model,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from revrank.evaluation import model_rank_group
from revrank.synthgen import SynthConfig, generate
from revrank.trainer import TrainConfig, _derive_seed, initialize_model

CONTEXT_FLAGS = [
    "--context", "guest_type=Couple",
    "--context", "guest_country=Italy",
    "--context", "room_nights=3",
    "--context", "month=July",
]


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.csv"
    write_csv(generate(SynthConfig(n_accommodations=40,
                                   reviews_per_accommodation=(10, 10), seed=3)), path)
    return path


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory, corpus_csv):
    out = tmp_path_factory.mktemp("ckpt") / "run"
    code = main([
        "train", "--data", str(corpus_csv), "--preset", "desk",
        "--epochs", "2", "--d", "16", "--d-e", "16", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestIngest:
    def test_valid_csv_exits_zero(self, corpus_csv, capsys):
        assert main(["ingest", "--input", str(corpus_csv), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "voted_fraction=" in out
        assert "rejections=0" in out

    def test_report_written_to_file(self, corpus_csv, tmp_path):
        report = tmp_path / "stats.txt"
        code = main(["ingest", "--input", str(corpus_csv), "--report", str(report)])
        assert code == 0
        assert "n_accommodations=40" in report.read_text()

    def test_missing_column_strict_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["ingest", "--input", str(bad), "--strict"]) == 1
        assert "guest_type" in capsys.readouterr().err

    def test_lenient_bad_row_exit_0_and_reported(self, corpus_csv, tmp_path, capsys):
        lines = corpus_csv.read_text().splitlines()
        lines[1] = lines[1].replace("synth-", "", 1).rsplit(",", 1)[0] + ",notabool"
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--input", str(broken)]) == 0
        assert "rejections=1" in capsys.readouterr().out

    def test_unreadable_input_exit_2(self, capsys):
        assert main(["ingest", "--input", "no/such/file.csv"]) == 2

    @pytest.mark.parametrize("argv", [
        ["ingest", "--input", "FILE"],
        ["ingest", "--strict", "--input", "FILE"],
        ["train", "--data", "FILE", "--out", "OUT"],
    ])
    def test_not_utf8_input_exit_1_names_the_file(self, corpus_csv, tmp_path, capsys, argv):
        lines = corpus_csv.read_bytes().split(b"\n")
        lines[30] = lines[30].replace(b"synth-", b"synth\xa4", 1)
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\n".join(lines))
        names = {"FILE": str(path), "OUT": str(tmp_path / "out")}
        assert main([names.get(arg, arg) for arg in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (byte 0xa4: invalid start byte)\n")

    def oversized_field_csv(self, corpus_csv, tmp_path):
        """The corpus with one review field over the CSV reader's field limit."""
        lines = corpus_csv.read_text().splitlines()
        column = lines[0].split(",").index("review_positive")
        cells = lines[2].split(",")
        cells[column] = "x" * 131073
        lines[2] = ",".join(cells)
        path = tmp_path / "oversized.csv"
        path.write_text("\n".join(lines) + "\n")
        return path, len(lines) - 1

    def run_ingest(self, *args):
        # A subprocess, so that a traceback on stderr is seen too.
        env = dict(os.environ, PYTHONPATH=str(Path(revrank.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "revrank", "ingest", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_oversized_field_lenient_rejects_row(self, corpus_csv, tmp_path):
        path, n_rows = self.oversized_field_csv(corpus_csv, tmp_path)
        proc = self.run_ingest("--input", str(path))
        assert proc.returncode == 0
        assert proc.stderr == ""
        out = proc.stdout.splitlines()
        assert "rejections=1" in out
        assert any(l.startswith("rejection.row_2=") and "field limit" in l for l in out)
        # the reader goes on at the next line: every other row is loaded
        assert f"n_records={n_rows - 1}" in out

    def test_oversized_field_strict_exit_1_one_line(self, corpus_csv, tmp_path):
        path, _ = self.oversized_field_csv(corpus_csv, tmp_path)
        proc = self.run_ingest("--input", str(path), "--strict")
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: row 2: ")

    def test_byte_order_mark_is_skipped(self, corpus_csv, tmp_path, capsys):
        plain = corpus_csv.read_bytes()
        assert not plain.startswith(codecs.BOM_UTF8)  # write_csv writes no BOM
        bom = tmp_path / "bom.csv"
        bom.write_bytes(codecs.BOM_UTF8 + plain)
        assert load_csv(bom) == load_csv(corpus_csv)
        reports = []
        for path in (corpus_csv, bom):
            assert main(["ingest", "--input", str(path)]) == 0
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1]


class TestGenSynthetic:
    def test_writes_ingestible_csv(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main(["gen-synthetic", "--out", str(out),
                     "--accommodations", "12", "--reviews", "4..6", "--seed", "1"])
        assert code == 0
        result = load_csv(out, schema_mode="strict")
        assert result.rejections == []
        sizes = {}
        for r in result.records:
            sizes[r.accommodation.accommodation_id] = (
                sizes.get(r.accommodation.accommodation_id, 0) + 1
            )
        assert len(sizes) == 12
        assert all(4 <= n <= 6 for n in sizes.values())

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["gen-synthetic", "--accommodations", "6", "--reviews", "3", "--seed", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "gen.txt"
        cfg.write_text("n_accommodations = 9\nseed = 2\n# comment\n")
        out = tmp_path / "synth.csv"
        code = main(["gen-synthetic", "--out", str(out), "--config", str(cfg),
                     "--accommodations", "5", "--reviews", "3"])
        assert code == 0
        result = load_csv(out, schema_mode="strict")
        ids = {r.accommodation.accommodation_id for r in result.records}
        assert len(ids) == 5


class TestTrain:
    def test_paper_preset_echo(self, corpus_csv, tmp_path, capsys):
        out = tmp_path / "paper_run"
        code = main(["train", "--data", str(corpus_csv), "--preset", "paper",
                     "--d", "8", "--d-e", "8", "--out", str(out)])
        assert code == 0
        echo = (out / "config.txt").read_text()
        assert "learning_rate = 3e-05" in echo
        assert "weight_decay = 0.01" in echo
        assert "warmup_fraction = 0.05" in echo
        assert "epochs = 4" in echo
        assert "batch_size = 64" in echo

    def test_loss_and_sampler_flags_echoed(self, corpus_csv, tmp_path):
        out = tmp_path / "flagged"
        code = main(["train", "--data", str(corpus_csv), "--preset", "desk",
                     "--loss", "bce", "--sampler", "in-accommodation",
                     "--epochs", "1", "--d", "8", "--d-e", "8", "--out", str(out)])
        assert code == 0
        echo = (out / "config.txt").read_text()
        assert "loss = bce" in echo
        assert "sampler = in_accommodation" in echo

    def test_config_file_overridden_by_flag(self, corpus_csv, tmp_path):
        cfg = tmp_path / "train.txt"
        cfg.write_text("epochs = 3\nbatch_size = 8\n")
        out = tmp_path / "layered"
        code = main(["train", "--data", str(corpus_csv), "--config", str(cfg),
                     "--epochs", "1", "--d", "8", "--d-e", "8", "--out", str(out)])
        assert code == 0
        echo = (out / "config.txt").read_text()
        assert "epochs = 1" in echo
        assert "batch_size = 8" in echo

    def test_unknown_config_key_exit_1(self, corpus_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("bogus = 3\n")
        assert main(["train", "--data", str(corpus_csv), "--config", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self, corpus_csv):
        assert main(["train", "--data", str(corpus_csv), "--bogus-flag", "1"]) == 1

    def test_non_numeric_split_exit_1(self, corpus_csv, tmp_path, capsys):
        assert main(["train", "--data", str(corpus_csv), "--split", "x,0.5,0.5",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: --split fraction 'x' is not a number (in 'x,0.5,0.5')\n")
        assert not (tmp_path / "out").exists()

    def test_divergence_exit_1_one_line(self, corpus_csv, tmp_path):
        # A subprocess, so that warnings printed to stderr are seen too.
        env = dict(os.environ, PYTHONPATH=str(Path(revrank.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "revrank", "train", "--data", str(corpus_csv),
             "--preset", "desk", "--learning-rate", "1e8", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: training diverged at epoch 1 batch ")

    def test_divergence_in_embeddings_exit_1_one_line(self, tmp_path):
        # On this corpus the embeddings overflow before the loss turns
        # non-finite; that is reported as divergence too.
        corpus = tmp_path / "corpus.csv"
        assert main(["gen-synthetic", "--out", str(corpus), "--accommodations", "20",
                     "--reviews", "12", "--seed", "1"]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(revrank.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "revrank", "train", "--data", str(corpus),
             "--preset", "desk", "--learning-rate", "1e8", "--d", "8", "--d-e", "8"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: training diverged at epoch ")

    def test_checkpoint_layout(self, checkpoint_dir):
        names = sorted(p.name for p in checkpoint_dir.iterdir())
        assert names == ["best.npz", "config.txt", "final.npz",
                         "train_log.txt", "vocabulary.txt"]


class TestEvaluate:
    def test_report_rows_follow_methods_order(self, corpus_csv, checkpoint_dir, capsys):
        code = main(["evaluate", "--checkpoint", str(checkpoint_dir / "best.npz"),
                     "--data", str(corpus_csv), "--methods", "votes,model,untrained",
                     "--split", "0.8,0.1,0.1", "--part", "test", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [line.split("\t")[0] for line in out.splitlines()
                if line and not line.startswith(("#", "method"))]
        assert rows == ["votes"] * 3 + ["model"] * 3 + ["untrained"] * 3
        assert "# friedman" in out

    def test_single_method_no_appendix(self, corpus_csv, capsys):
        code = main(["evaluate", "--data", str(corpus_csv), "--methods", "votes"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# friedman" not in out
        assert "# dunn" not in out

    def test_metrics_within_bounds(self, corpus_csv, checkpoint_dir, capsys):
        code = main(["evaluate", "--checkpoint", str(checkpoint_dir / "best.npz"),
                     "--data", str(corpus_csv), "--methods", "model,votes,untrained"])
        assert code == 0
        for line in capsys.readouterr().out.splitlines():
            if line.startswith(("#", "method")) or not line:
                continue
            _, _, mean, std = line.split("\t")
            assert 0.0 <= float(mean) <= 1.0
            assert float(std) >= 0.0

    def test_unknown_method_exit_1(self, corpus_csv, capsys):
        assert main(["evaluate", "--data", str(corpus_csv), "--methods", "oracle"]) == 1
        assert "oracle" in capsys.readouterr().err

    def test_non_numeric_split_exit_1(self, corpus_csv, capsys):
        assert main(["evaluate", "--data", str(corpus_csv), "--methods", "votes",
                     "--split", "0.8,0.1,"]) == 1
        assert capsys.readouterr().err == (
            "error: --split fraction '' is not a number (in '0.8,0.1,')\n")

    def test_part_needs_split(self, corpus_csv, capsys):
        data = ["evaluate", "--data", str(corpus_csv), "--methods", "votes"]
        assert main([*data, "--part", "valid"]) == 1
        assert capsys.readouterr() == ("", "error: --part needs --split\n")
        assert main([*data, "--split", "0.8,0.1,0.1"]) == 0
        default = capsys.readouterr().out
        assert main([*data, "--split", "0.8,0.1,0.1", "--part", "test"]) == 0
        assert capsys.readouterr().out == default

    def test_model_without_checkpoint_exit_1(self, corpus_csv):
        assert main(["evaluate", "--data", str(corpus_csv), "--methods", "model"]) == 1


class TestEarlyValidation:
    """Out-of-range values exit 1 with one line naming them, before any file is read."""

    MISSING = "no/such/file"

    @pytest.mark.parametrize("argv, message", [
        (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--min-frequency", "0"], "min_frequency must be >= 1, got 0"),
        (["train", "--max-vocab-size", "0"], "max_vocab_size must be >= 1, got 0"),
        (["evaluate", "--seed", "-2"], "--seed must be >= 0, got -2"),
        (["compare", "--seed", "-2", "--baseline-checkpoint", MISSING,
          "--lexicon", MISSING], "--seed must be >= 0, got -2"),
    ], ids=["train-seed", "train-min-frequency", "train-max-vocab-size", "evaluate-seed",
            "compare-seed"])
    def test_exit_1_before_reading(self, argv, message, capsys):
        argv = [*argv, "--data", self.MISSING]
        if argv[0] != "train":
            argv += ["--checkpoint", self.MISSING]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_gen_synthetic_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        assert main(["gen-synthetic", "--out", str(out), "--seed", "-3"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
        assert not out.exists()


def table_bits(model):
    return [a.tobytes() for p in (model.context, model.review) for a in p.blocks().values()]


def test_fresh_towers_come_from_one_constructor(corpus_csv, checkpoint_dir, monkeypatch):
    # evaluate's untrained model is seeded (--seed, --seed + 1); a training's
    # first model with two seeds derived from the config's seed.
    ranked = []

    def recording(model, group, ids):
        ranked.append(model)
        return model_rank_group(model, group, ids)

    monkeypatch.setattr(cli, "model_rank_group", recording)
    assert main(["evaluate", "--checkpoint", str(checkpoint_dir / "best.npz"),
                 "--data", str(corpus_csv), "--methods", "untrained", "--seed", "4"]) == 0
    trained = load_checkpoint(checkpoint_dir / "best.npz")
    d, d_e, size = trained.context.d, trained.context.d_e, len(trained.vocab)
    untrained = init_model(trained.vocab, d, d_e, (4, 5))
    assert ranked and all(table_bits(m) == table_bits(untrained) for m in ranked)
    by_hand = DualEncoder(trained.vocab, init_params(d, d_e, size, seed=4),
                          init_params(d, d_e, size, seed=5))
    assert table_bits(untrained) == table_bits(by_hand)

    fresh, _ = initialize_model(load_csv(corpus_csv).records, TrainConfig(d=d, d_e=d_e, seed=3))
    seeds = (_derive_seed(3, 1), _derive_seed(3, 2))
    assert table_bits(fresh) == table_bits(init_model(fresh.vocab, d, d_e, seeds))


class TestRank:
    def one_accommodation_csv(self, corpus_csv, tmp_path):
        records = load_csv(corpus_csv).records
        first = records[0].accommodation.accommodation_id
        subset = [r for r in records if r.accommodation.accommodation_id == first]
        path = tmp_path / "one.csv"
        write_csv(subset, path)
        return path, len(subset)

    def test_scores_descending_and_complete(self, corpus_csv, checkpoint_dir,
                                            tmp_path, capsys):
        reviews, n = self.one_accommodation_csv(corpus_csv, tmp_path)
        code = main(["rank", "--checkpoint", str(checkpoint_dir / "best.npz"),
                     "--reviews", str(reviews), "--top", "99"] + CONTEXT_FLAGS)
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert len(lines) == n
        scores = [float(l.split("\t")[1]) for l in lines]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_output(self, corpus_csv, checkpoint_dir, tmp_path, capsys):
        reviews, _ = self.one_accommodation_csv(corpus_csv, tmp_path)
        argv = ["rank", "--checkpoint", str(checkpoint_dir / "best.npz"),
                "--reviews", str(reviews), "--top", "3"] + CONTEXT_FLAGS
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_multiple_accommodations_exit_1(self, corpus_csv, checkpoint_dir, capsys):
        code = main(["rank", "--checkpoint", str(checkpoint_dir / "best.npz"),
                     "--reviews", str(corpus_csv)] + CONTEXT_FLAGS)
        assert code == 1
        assert "one accommodation" in capsys.readouterr().err

    def test_unknown_context_key_exit_1(self, corpus_csv, checkpoint_dir,
                                        tmp_path, capsys):
        reviews, _ = self.one_accommodation_csv(corpus_csv, tmp_path)
        code = main(["rank", "--checkpoint", str(checkpoint_dir / "best.npz"),
                     "--reviews", str(reviews), "--context", "shoe_size=44"])
        assert code == 1
        assert "shoe_size" in capsys.readouterr().err

    def test_missing_context_key_exit_1(self, corpus_csv, checkpoint_dir, tmp_path):
        reviews, _ = self.one_accommodation_csv(corpus_csv, tmp_path)
        code = main(["rank", "--checkpoint", str(checkpoint_dir / "best.npz"),
                     "--reviews", str(reviews), "--context", "guest_type=Couple"])
        assert code == 1

    @pytest.mark.parametrize("value, reason", [
        ("abc", "bad 'room_nights': invalid literal for int() with base 10: 'abc'"),
        ("", "empty numeric cell 'room_nights'"),
        ("2.5", "bad 'room_nights': invalid literal for int() with base 10: '2.5'"),
        ("0", "room_nights must be >= 1, got 0"),
    ])
    def test_bad_context_value_names_the_key(self, corpus_csv, checkpoint_dir, tmp_path,
                                             capsys, value, reason):
        reviews, _ = self.one_accommodation_csv(corpus_csv, tmp_path)
        code = main(["rank", "--checkpoint", str(checkpoint_dir / "best.npz"),
                     "--reviews", str(reviews), *CONTEXT_FLAGS,
                     "--context", f"room_nights={value}"])
        assert code == 1
        assert capsys.readouterr().err == f"error: --context: {reason}\n"


class TestCompare:
    LEXICON = ("solo: quiet, wifi, workspace, laptop, desk\n"
               "couple: romantic, sunset, terrace, candlelight, cozy\n"
               "group: friends, karaoke, barbecue, lounge, beers\n"
               "family: kids, playground, stroller, toddler, cots\n")

    def test_stratified_two_per_guest_type(self, corpus_csv, checkpoint_dir,
                                           tmp_path, capsys):
        lexicon = tmp_path / "topics.txt"
        lexicon.write_text(self.LEXICON)
        code = main(["compare", "--checkpoint", str(checkpoint_dir / "best.npz"),
                     "--baseline-checkpoint", str(checkpoint_dir / "final.npz"),
                     "--data", str(corpus_csv), "--lexicon", str(lexicon),
                     "--samples", "8", "--stratify", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        headers = [l for l in out.splitlines() if l.startswith("[")]
        assert len(headers) == 8
        for label in ("Solo traveller", "Couple", "Group", "Family with children"):
            assert sum(f"guest_type={label}" in h for h in headers) == 2

    def test_deterministic_table(self, corpus_csv, checkpoint_dir, tmp_path):
        lexicon = tmp_path / "topics.txt"
        lexicon.write_text(self.LEXICON)
        outputs = []
        for name in ("x.txt", "y.txt"):
            out = tmp_path / name
            code = main(["compare", "--checkpoint", str(checkpoint_dir / "best.npz"),
                         "--baseline-checkpoint", str(checkpoint_dir / "final.npz"),
                         "--data", str(corpus_csv), "--lexicon", str(lexicon),
                         "--samples", "4", "--seed", "7", "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_lexicon_byte_order_mark_is_skipped(self, corpus_csv, checkpoint_dir,
                                               tmp_path, capsys):
        outputs = []
        for name, mark in (("plain", b""), ("bom", codecs.BOM_UTF8)):
            lexicon = tmp_path / f"{name}.txt"
            lexicon.write_bytes(mark + self.LEXICON.encode("utf-8"))
            out = tmp_path / f"{name}.out"
            code = main(["compare", "--checkpoint", str(checkpoint_dir / "best.npz"),
                         "--baseline-checkpoint", str(checkpoint_dir / "final.npz"),
                         "--data", str(corpus_csv), "--lexicon", str(lexicon),
                         "--samples", "4", "--seed", "7", "--out", str(out)])
            assert code == 0
            stdout = capsys.readouterr().out.replace(str(tmp_path / name), "PATH")
            outputs.append((out.read_bytes(), stdout))
        assert outputs[0] == outputs[1]
        assert b"solo" in outputs[0][0]

    def test_not_utf8_lexicon_exit_1_names_the_file(self, corpus_csv, checkpoint_dir,
                                                     tmp_path):
        lexicon = tmp_path / "topics.txt"
        lexicon.write_bytes(b"solo: quiet\xa4, wifi\n")
        proc = run_revrank("compare", "--checkpoint", str(checkpoint_dir / "best.npz"),
                           "--baseline-checkpoint", str(checkpoint_dir / "final.npz"),
                           "--data", str(corpus_csv), "--lexicon", str(lexicon))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"error: {lexicon}: not UTF-8 text (byte 0xa4: invalid start byte)\n")

    def test_empty_lexicon_exit_1(self, corpus_csv, checkpoint_dir, tmp_path, capsys):
        lexicon = tmp_path / "empty.txt"
        lexicon.write_text("# only comments\n")
        code = main(["compare", "--checkpoint", str(checkpoint_dir / "best.npz"),
                     "--baseline-checkpoint", str(checkpoint_dir / "final.npz"),
                     "--data", str(corpus_csv), "--lexicon", str(lexicon),
                     "--samples", "2"])
        assert code == 1
        assert "no topics" in capsys.readouterr().err


class TestCorruptCheckpoint:
    def test_not_an_archive_exit_1(self, corpus_csv, tmp_path, capsys):
        fake = tmp_path / "fake.npz"
        fake.write_bytes(b"definitely not a checkpoint")
        code = main(["evaluate", "--checkpoint", str(fake),
                     "--data", str(corpus_csv), "--methods", "model"])
        assert code == 1

    def test_mismatched_latent_dimensions_exit_1(self, corpus_csv, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "mismatched.npz"
        np.savez(
            path,
            format_version=np.array(1),
            vocab_tokens=np.array(["hotel", "<unk>"]),
            vocab_min_frequency=np.array(1),
            vocab_max_size=np.array(50000),
            context_embedding=rng.normal(size=(2, 3)),
            context_projection=rng.normal(size=(3, 4)),
            context_bias=np.zeros(4),
            review_embedding=rng.normal(size=(2, 3)),
            review_projection=rng.normal(size=(3, 5)),
            review_bias=np.zeros(5),
        )
        code = main(["evaluate", "--checkpoint", str(path),
                     "--data", str(corpus_csv), "--methods", "model"])
        assert code == 1
        err = capsys.readouterr().err
        assert "context latent dimension 4 does not match review latent dimension 5" in err

    def test_flipped_table_byte_exit_1_one_line(self, corpus_csv, checkpoint_dir, tmp_path):
        source = checkpoint_dir / "best.npz"
        with zipfile.ZipFile(source) as archive:
            member = archive.getinfo("context_embedding.npy")
        raw = bytearray(source.read_bytes())
        # The member's data starts under 100 bytes after its local header
        # and is far longer, so this byte lies inside the table.
        raw[member.header_offset + member.compress_size] ^= 0x01
        damaged = tmp_path / "damaged.npz"
        damaged.write_bytes(raw)
        reviews, _ = TestRank().one_accommodation_csv(corpus_csv, tmp_path)
        # A subprocess, so that a traceback on stderr is seen too.
        env = dict(os.environ, PYTHONPATH=str(Path(revrank.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "revrank", "rank", "--checkpoint", str(damaged),
             "--reviews", str(reviews), *CONTEXT_FLAGS],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {damaged}: entry 'context_embedding': bad CRC-32"
        ]

    def test_compressed_checkpoint_exit_1_one_line(self, corpus_csv, checkpoint_dir, tmp_path):
        with np.load(checkpoint_dir / "best.npz") as saved:
            compressed = tmp_path / "compressed.npz"
            np.savez_compressed(compressed, **saved)
        reviews, _ = TestRank().one_accommodation_csv(corpus_csv, tmp_path)
        proc = run_revrank("rank", "--checkpoint", str(compressed), "--reviews", str(reviews),
                           *CONTEXT_FLAGS)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {compressed}: entry 'format_version': unsupported compression method 8"
        ]

    def test_missing_checkpoint_exit_2(self, corpus_csv):
        code = main(["evaluate", "--checkpoint", "no/ckpt.npz",
                     "--data", str(corpus_csv), "--methods", "model"])
        assert code == 2


def run_revrank(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a subprocess, so that warnings and tracebacks on stderr are seen."""
    env = dict(os.environ, PYTHONPATH=str(Path(revrank.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "revrank", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


# Imports revrank.cli and runs the argv after the script; prints the
# top-level modules this loaded other than the standard library, numpy and
# revrank.
ONLY_NUMPY = """
import sys
before = {name.split(".")[0] for name in sys.modules}
from revrank.cli import main
assert main(sys.argv[1:]) == 0
loaded = {name.split(".")[0] for name in sys.modules} - before
print(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "revrank"}))
"""


def test_evaluate_loads_only_numpy(corpus_csv, checkpoint_dir, tmp_path):
    # Two methods over 40 accommodations, so the Friedman test runs.
    report = tmp_path / "report.txt"
    proc = subprocess.run(
        [sys.executable, "-c", ONLY_NUMPY, "evaluate", "--methods", "model,votes",
         "--checkpoint", str(checkpoint_dir / "best.npz"), "--data", str(corpus_csv),
         "--out", str(report)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(revrank.__file__).parents[1])))
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    assert "# friedman\tchi2=" in report.read_text()


class TestNonFiniteModel:
    def test_overflowing_encodings_exit_1_one_line(self, corpus_csv, checkpoint_dir,
                                                   tmp_path):
        # Every entry is finite, so the checkpoint loads, but +-1e160 tables
        # overflow the projection and the encodings are inf or NaN.
        base = load_checkpoint(checkpoint_dir / "best.npz")
        rng = np.random.default_rng(0)

        def huge(params):
            return EncoderParams(*(1e160 * rng.choice([-1.0, 1.0], size=block.shape)
                                   for block in params.blocks().values()))

        path = tmp_path / "huge.npz"
        save_checkpoint(DualEncoder(vocab=base.vocab, context=huge(base.context),
                                    review=huge(base.review)), path)
        reviews, _ = TestRank().one_accommodation_csv(corpus_csv, tmp_path)
        lexicon = tmp_path / "topics.txt"
        lexicon.write_text(TestCompare.LEXICON)
        good = str(checkpoint_dir / "best.npz")
        compare = ["compare", "--data", str(corpus_csv), "--lexicon", str(lexicon)]
        for argv in (
            ["rank", "--checkpoint", str(path), "--reviews", str(reviews), *CONTEXT_FLAGS],
            ["evaluate", "--checkpoint", str(path), "--data", str(corpus_csv),
             "--methods", "model"],
            ["evaluate", "--checkpoint", str(path), "--data", str(corpus_csv),
             "--methods", "votes,untrained,model"],
            [*compare, "--checkpoint", str(path), "--baseline-checkpoint", good],
            [*compare, "--checkpoint", good, "--baseline-checkpoint", str(path)],
        ):
            proc = run_revrank(*argv)
            assert proc.returncode == 1, argv
            assert proc.stdout == "", argv
            assert proc.stderr.splitlines() == [f"error: {path}: non-finite embeddings"], argv

    def test_saturated_scores_print_no_warnings(self, tmp_path):
        # Training at this rate exits 0 with parameters up to about 1e135, so
        # the dot products overflow to +-inf and every score saturates.
        corpus = tmp_path / "corpus.csv"
        out = tmp_path / "run"
        assert main(["gen-synthetic", "--out", str(corpus), "--accommodations", "20",
                     "--reviews", "12", "--seed", "1"]) == 0
        assert main(["train", "--data", str(corpus), "--preset", "desk", "--split", "1,0,0",
                     "--learning-rate", "1e9", "--epochs", "1", "--d", "8", "--d-e", "8",
                     "--out", str(out)]) == 0
        reviews, n = TestRank().one_accommodation_csv(corpus, tmp_path)
        proc = run_revrank("rank", "--checkpoint", str(out / "final.npz"),
                           "--reviews", str(reviews), "--top", "99", *CONTEXT_FLAGS)
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()[1:]
        assert len(lines) == n
        assert {line.split("\t")[1] for line in lines} <= {"0.000000", "1.000000"}


HELP_DIR = Path(__file__).parent / "data" / "help"


@pytest.mark.parametrize(
    "subcommand", ["ingest", "gen-synthetic", "train", "evaluate", "rank", "compare"]
)
def test_help_text_is_unchanged(subcommand, monkeypatch, capsys):
    """The --help text of each subcommand is part of the CLI contract."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([subcommand, "--help"])
    assert exit_info.value.code == 0
    expected = (HELP_DIR / f"{subcommand}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
