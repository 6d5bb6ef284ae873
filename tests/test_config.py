"""The key=value config format: keys, parsing, the echo and layering.

Fuzzed configs are only parsed and constructed, never trained on or
generated from, so their sizes do not matter.
"""

import re
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from revrank.cli import main
from revrank.config import (
    config_keys,
    config_to_text,
    layer_config,
    parse_config_file,
    parse_value,
)
from revrank.synthgen import SynthConfig
from revrank.trainer import LOSS_CHOICES, PRESETS, SAMPLER_CHOICES, TrainConfig

SYNTH_KEYS = {"n_accommodations", "reviews_per_accommodation", "signal_strength",
              "seed", "vote_fraction", "score_noise"}
# Hypothesis reuses the function-scoped tmp_path; every example rewrites its file.
FILE_PER_TEST = settings(deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


def positive_floats(**kwargs):
    return st.floats(min_value=0.0, allow_infinity=False, allow_nan=False, **kwargs)


def unit_floats(**kwargs):
    return st.floats(min_value=0.0, max_value=1.0, **kwargs)


TRAIN_CONFIGS = st.builds(
    TrainConfig,
    learning_rate=positive_floats(exclude_min=True),
    weight_decay=positive_floats(),
    warmup_fraction=unit_floats(exclude_max=True),
    epochs=st.integers(min_value=0),
    batch_size=st.integers(min_value=2),
    loss=st.sampled_from(LOSS_CHOICES),
    sampler=st.sampled_from(SAMPLER_CHOICES),
    seed=st.integers(min_value=0),
    d=st.integers(min_value=1),
    d_e=st.integers(min_value=1),
    min_frequency=st.integers(min_value=1),
    max_vocab_size=st.integers(min_value=1),
    beta1=unit_floats(exclude_max=True),
    beta2=unit_floats(exclude_max=True),
    eps=positive_floats(exclude_min=True),
)


@st.composite
def synth_configs(draw):
    lo = draw(st.integers(min_value=1))
    return SynthConfig(
        n_accommodations=draw(st.integers(min_value=1)),
        reviews_per_accommodation=(lo, draw(st.integers(min_value=lo))),
        signal_strength=draw(unit_floats()),
        seed=draw(st.integers(min_value=0)),
        vote_fraction=draw(unit_floats()),
        score_noise=draw(positive_floats()),
    )


# Text the file could hold: mostly key = value lines over real and made-up
# keys, with values of every type and none.
ANY_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)
KEYS = st.sampled_from(sorted(
    set(config_keys(TrainConfig)) | SYNTH_KEYS
    | {"segment_lexicons", "background_lexicon", "bogus", ""}
))
VALUES = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.tuples(st.integers(), st.integers()).map(lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from(LOSS_CHOICES + SAMPLER_CHOICES + ("in-accommodation",)),
    ANY_TEXT,
)
LINES = st.one_of(
    st.tuples(KEYS, st.sampled_from(["=", " = ", "==", ""]), VALUES).map("".join),
    st.sampled_from(["", "# comment", "   "]),
    ANY_TEXT,
)
CONFIG_TEXTS = st.lists(LINES, max_size=8).map("\n".join)


class TestKeys:
    def test_train_keys_are_every_field(self):
        assert list(config_keys(TrainConfig)) == [f.name for f in fields(TrainConfig)]
        assert len(config_keys(TrainConfig)) == 15

    def test_synth_keys_are_the_scalar_fields(self):
        assert set(config_keys(SynthConfig)) == SYNTH_KEYS

    @pytest.mark.parametrize("key", ["segment_lexicons", "background_lexicon"])
    def test_lexicon_keys_rejected(self, tmp_path, key):
        path = tmp_path / "gen.cfg"
        path.write_text(f"{key} = quiet\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            parse_config_file(SynthConfig, path)


class TestValues:
    @pytest.mark.parametrize("raw, expected", [
        ("7", (7, 7)), ("3..5", (3, 5)), (" 2 .. 4 ", (2, 4)),
    ])
    def test_review_range_as_n_or_lo_hi(self, raw, expected):
        assert parse_value(SynthConfig, "reviews_per_accommodation", raw) == expected

    @pytest.mark.parametrize("raw", ["", "3..", "..5", "3..4..5", "three"])
    def test_bad_review_range_rejected(self, raw):
        with pytest.raises(ValueError):
            parse_value(SynthConfig, "reviews_per_accommodation", raw)

    def test_values_take_the_field_type(self):
        assert parse_value(TrainConfig, "epochs", " 3 ") == 3
        assert parse_value(TrainConfig, "learning_rate", "1e-3") == 1e-3
        assert parse_value(TrainConfig, "loss", " bce ") == "bce"
        with pytest.raises(ValueError):
            parse_value(TrainConfig, "epochs", "3.5")

    @pytest.mark.parametrize("flags", [
        {"reviews_per_accommodation": "x"}, {"reviews_per_accommodation": "3..x"},
    ])
    def test_bad_flag_value_names_its_key(self, flags):
        with pytest.raises(ValueError, match=(
                r"^bad 'reviews_per_accommodation': invalid literal for int\(\) "
                r"with base 10: 'x'$")):
            layer_config(SynthConfig(), None, flags)

    def test_bad_file_value_names_its_key(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = two\n", encoding="utf-8")
        with pytest.raises(ValueError, match=(
                r"^bad 'epochs': invalid literal for int\(\) with base 10: 'two'$")):
            parse_config_file(TrainConfig, path)

    @pytest.mark.parametrize("argv, message", [
        (["gen-synthetic", "--reviews", "x", "--out", "OUT"],
         "bad 'reviews_per_accommodation': invalid literal for int() with base 10: 'x'"),
        (["gen-synthetic", "--reviews", "3..x", "--out", "OUT"],
         "bad 'reviews_per_accommodation': invalid literal for int() with base 10: 'x'"),
        (["train", "--config", "CONFIG", "--data", "DATA", "--out", "OUT"],
         "bad 'epochs': invalid literal for int() with base 10: 'two'"),
    ])
    def test_cli_exit_1_names_the_key(self, tmp_path, capsys, argv, message):
        config = tmp_path / "train.cfg"
        config.write_text("epochs = two\n", encoding="utf-8")
        names = {"CONFIG": str(config), "DATA": str(tmp_path / "absent.csv"),
                 "OUT": str(tmp_path / "out")}
        assert main([names.get(arg, arg) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "CONFIG", "--data", "DATA", "--out", "OUT"],
        ["gen-synthetic", "--config", "CONFIG", "--out", "OUT"],
    ])
    def test_cli_exit_1_names_a_config_not_utf8(self, tmp_path, capsys, argv):
        config = tmp_path / "latin.cfg"
        config.write_bytes(b"epochs = 2\xa4\n")
        names = {"CONFIG": str(config), "DATA": str(tmp_path / "absent.csv"),
                 "OUT": str(tmp_path / "out")}
        assert main([names.get(arg, arg) for arg in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: not UTF-8 text (byte 0xa4: invalid start byte)\n")

    @pytest.mark.parametrize("argv, text", [
        (["train", "--config", "CONFIG", "--data", "DATA", "--d", "4", "--d-e", "4",
          "--out", "OUT"], b"epochs = 1\nseed = 4\n"),
        (["gen-synthetic", "--config", "CONFIG", "--out", "OUT"],
         b"n_accommodations = 3\nseed = 4\n"),
    ])
    def test_cli_skips_a_byte_order_mark(self, tmp_path, capsys, argv, text):
        assert main(["gen-synthetic", "--out", str(tmp_path / "data.csv"),
                     "--accommodations", "6", "--reviews", "4"]) == 0
        outputs = []
        for name, raw in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            config = tmp_path / f"{name}.cfg"
            config.write_bytes(raw)
            out_dir = tmp_path / name
            out_dir.mkdir()
            names = {"CONFIG": str(config), "DATA": str(tmp_path / "data.csv"),
                     "OUT": str(out_dir / "out")}
            capsys.readouterr()
            assert main([names.get(arg, arg) for arg in argv]) == 0
            files = sorted(f for f in out_dir.rglob("*") if f.is_file())
            stdout = capsys.readouterr().out.replace(str(out_dir), "DIR").encode()
            outputs.append([str(f.relative_to(out_dir)) for f in files] + [
                re.sub(rb"seconds=[0-9.]+", b"seconds=", data)
                for data in [stdout] + [f.read_bytes() for f in files]
            ])
        assert outputs[0] == outputs[1]

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\nepochs 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2 is not a key=value pair"):
            parse_config_file(TrainConfig, path)


class TestRejected:
    @pytest.mark.parametrize("field, value, bound", [
        ("seed", -1, 0), ("min_frequency", 0, 1), ("max_vocab_size", 0, 1),
    ])
    def test_train_config_names_the_field(self, field, value, bound):
        with pytest.raises(ValueError, match=f"^{field} must be >= {bound}, got {value}$"):
            TrainConfig(**{field: value})

    def test_synth_config_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -3$"):
            SynthConfig(seed=-3)


class TestEcho:
    @FILE_PER_TEST
    @given(config=TRAIN_CONFIGS)
    def test_train_round_trip(self, tmp_path, config):
        path = tmp_path / "config.txt"
        path.write_text(config_to_text(config), encoding="utf-8")
        assert replace(TrainConfig(), **parse_config_file(TrainConfig, path)) == config

    @FILE_PER_TEST
    @given(config=synth_configs())
    def test_synth_round_trip(self, tmp_path, config):
        path = tmp_path / "gen.cfg"
        path.write_text(config_to_text(config), encoding="utf-8")
        assert replace(SynthConfig(), **parse_config_file(SynthConfig, path)) == config

    def test_range_echoed_as_lo_hi(self):
        text = config_to_text(SynthConfig(reviews_per_accommodation=(3, 5)))
        assert "reviews_per_accommodation = 3..5\n" in text
        assert "lexicon" not in text


class TestFuzz:
    @settings(FILE_PER_TEST, max_examples=300)
    @given(cls=st.sampled_from([TrainConfig, SynthConfig]), text=CONFIG_TEXTS)
    def test_parse_gives_values_or_value_error(self, tmp_path, cls, text):
        path = tmp_path / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            values = parse_config_file(cls, path)
        except ValueError:
            return
        assert isinstance(values, dict)
        assert set(values) <= set(config_keys(cls))
        try:
            config = replace(cls(), **values)
        except ValueError:
            return
        assert isinstance(config, cls)


class TestLayering:
    def test_preset_then_file_then_flags(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 3\nbatch_size = 8\nloss = bce\n", encoding="utf-8")
        flags = {"epochs": 1, "seed": None, "data": "corpus.csv", "config": str(path)}
        config = layer_config(PRESETS["paper"], path, flags)
        assert config == replace(PRESETS["paper"], epochs=1, batch_size=8, loss="bce")

    def test_nothing_set_keeps_the_base(self):
        assert layer_config(PRESETS["desk"], None, {}) == PRESETS["desk"]

    def test_text_flag_parsed_like_a_file_value(self):
        flags = {"reviews_per_accommodation": "4..6", "n_accommodations": 5}
        config = layer_config(SynthConfig(), None, flags)
        assert (config.reviews_per_accommodation, config.n_accommodations) == ((4, 6), 5)

    def test_layered_config_validated_once(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text("n_accommodations = 0\n", encoding="utf-8")
        assert layer_config(SynthConfig(), path, {"n_accommodations": 2}).n_accommodations == 2
        with pytest.raises(ValueError, match="n_accommodations"):
            layer_config(SynthConfig(), path, {})
