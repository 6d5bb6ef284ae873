"""Command-line entry point for the review-ranking pipeline.

Subcommands cover the full workflow: ``ingest`` (validate a CSV and report
statistics), ``gen-synthetic`` (write a synthetic corpus), ``train``,
``evaluate``, ``rank`` (score one guest context against the reviews of one
accommodation), and ``compare`` (topic-overlap table between two
checkpoints).

Exit codes are a stable contract: 0 success, 1 domain or validation
failure (bad flags and a model whose encodings are not finite included),
2 I/O failure.  A failure writes one line to stderr.  Every subcommand is
deterministic given identical inputs, flags, and seeds.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import layer_config
from .contrastive import score_ids
from .dataset import (
    group_by_accommodation,
    load_csv,
    parse_fields,
    schema,
    split_dataset,
    statistics_key_values,
    utf8_named,
    validate_statistics,
    write_csv,
    GuestContext,
)
from .encoder import init_model, load_checkpoint
from .evaluation import (
    evaluate_methods,
    format_eval_report,
    format_overlap_table,
    helpful_votes_ranking,
    model_rank_group,
    model_scores,
    parse_lexicon,
    record_ids,
    topic_overlap_report,
)
from .synthgen import SynthConfig, generate
from .textualize import serialize_context, serialize_review
from .trainer import LOSS_CHOICES, PRESETS, SAMPLER_CHOICES, TrainConfig, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are validation failures, not I/O
        raise ValueError(f"{self.prog}: {message}")


def _split_parts(records, text: str, seed: int) -> dict[str, list]:
    """The records of each part of the ``--split`` fractions in ``text``, by part name."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--split needs three comma-separated fractions, got {text!r}")
    fractions = []
    for part in parts:
        try:
            fractions.append(float(part))
        except ValueError:
            raise ValueError(f"--split fraction {part!r} is not a number (in {text!r})") from None
    split = split_dataset(group_by_accommodation(records), tuple(fractions), seed)
    return {
        name: [r for g in groups for r in g.records]
        for name, groups in zip(("train", "valid", "test"), split)
    }


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


@contextmanager
def _checkpoint_named(path: str):
    """Prefix ``path`` to a scoring failure of the model loaded from it."""
    try:
        yield
    except FloatingPointError as exc:  # the encodings are not finite
        raise FloatingPointError(f"{Path(path)}: {exc}") from None


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# --- ingest -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    mode = "strict" if args.strict else "lenient"
    result = load_csv(args.input, schema_mode=mode)
    stats = validate_statistics(result.records)
    lines = [statistics_key_values(stats).rstrip("\n")]
    lines.append(f"rejections={len(result.rejections)}")
    for rejection in result.rejections:
        lines.append(f"rejection.row_{rejection.row}={rejection.reason}")
    _write_or_print("\n".join(lines) + "\n", args.report)
    return 0


# --- gen-synthetic ----------------------------------------------------------


def cmd_gen_synthetic(args) -> int:
    config = layer_config(SynthConfig(), args.config, vars(args))
    records = generate(config)
    write_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


# --- train ------------------------------------------------------------------


def cmd_train(args) -> int:
    base = PRESETS[args.preset] if args.preset else TrainConfig()
    flags = vars(args) | {"sampler": args.sampler and args.sampler.replace("-", "_")}
    config = layer_config(base, args.config, flags)

    records = load_csv(args.data).records
    parts = _split_parts(records, args.split, config.seed)
    result = train(parts["train"], parts["valid"], config, out_dir=args.out)
    sys.stdout.write(result.log_text())
    if args.out:
        print(f"checkpoints written to {args.out}")
    return 0


# --- evaluate ---------------------------------------------------------------


def cmd_evaluate(args) -> int:
    _check_seed(args.seed)
    method_names = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not method_names:
        raise ValueError("--methods must name at least one method")

    if args.part and not args.split:
        raise ValueError("--part needs --split")
    records = load_csv(args.data).records
    if args.split:
        records = _split_parts(records, args.split, args.seed)[args.part or "test"]
    groups = group_by_accommodation(records)

    model = None
    if any(m in ("model", "untrained") for m in method_names):
        if not args.checkpoint:
            raise ValueError("--checkpoint is required for model/untrained methods")
        model = load_checkpoint(args.checkpoint)

    token_ids = {}  # per group, shared: "untrained" has the model's vocabulary

    def group_ids(group):
        if group.accommodation_id not in token_ids:
            token_ids[group.accommodation_id] = record_ids(model.vocab, group.records)
        return token_ids[group.accommodation_id]

    def rank_model(group):
        with _checkpoint_named(args.checkpoint):
            return model_rank_group(model, group, group_ids(group))

    rankers = []
    for name in method_names:
        if name == "model":
            rankers.append((name, rank_model))
        elif name == "untrained":
            fresh = init_model(model.vocab, model.context.d, model.context.d_e,
                               (args.seed, args.seed + 1))
            rankers.append((name, lambda g, m=fresh: model_rank_group(m, g, group_ids(g))))
        elif name == "votes":
            rankers.append((name, helpful_votes_ranking))
        else:
            raise ValueError(f"unknown method {name!r} (expected model, votes, untrained)")

    report = evaluate_methods(rankers, groups, ks=(1, 10))
    _write_or_print(format_eval_report(report), args.out)
    return 0


# --- rank -------------------------------------------------------------------

_CONTEXT_KEYS = tuple(name for name, _ in schema(GuestContext))


def _parse_context_flags(pairs: list[str]) -> GuestContext:
    values = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"--context expects key=value, got {pair!r}")
        key = key.strip()
        if key not in _CONTEXT_KEYS:
            raise ValueError(
                f"unknown context key {key!r} (expected one of {', '.join(_CONTEXT_KEYS)})"
            )
        values[key] = raw
    missing = [k for k in _CONTEXT_KEYS if k not in values]
    if missing:
        raise ValueError(f"missing context keys: {', '.join(missing)}")
    try:
        return parse_fields(GuestContext, [values[k] for k in _CONTEXT_KEYS])
    except ValueError as exc:
        raise ValueError(f"--context: {exc}") from None


def cmd_rank(args) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    model = load_checkpoint(args.checkpoint)
    records = load_csv(args.reviews).records
    groups = group_by_accommodation(records)
    if len(groups) != 1:
        sample = ", ".join(g.accommodation_id for g in groups[:4])
        if len(groups) > 4:
            sample += ", ..."
        raise ValueError(f"reviews must share one accommodation, found {len(groups)}: {sample}")
    group = groups[0]
    guest = _parse_context_flags(args.context)
    context = serialize_context(guest, group.records[0].accommodation)
    reviews = [serialize_review(r.review) for r in group.records]
    with _checkpoint_named(args.checkpoint):
        scores = score_ids(
            model,
            [model.vocab.encode_text(context)],
            [model.vocab.encode_text(t) for t in reviews],
        ).values[0]
    # Exactly equal scores keep record order; two reviews with the same token
    # ids can still score one ulp apart (see the evaluation module).
    order = np.argsort(-scores, kind="stable")
    print(f"# accommodation={group.accommodation_id} reviews={len(scores)}")
    for position, idx in enumerate(order[: args.top].tolist(), start=1):
        title = group.records[idx].review.review_title or "(no title)"
        print(f"{position}\t{scores[idx]:.6f}\t{idx}\t{title}")
    return 0


# --- compare ----------------------------------------------------------------


def cmd_compare(args) -> int:
    _check_seed(args.seed)
    model = load_checkpoint(args.checkpoint)
    baseline = load_checkpoint(args.baseline_checkpoint)
    with utf8_named(args.lexicon):
        lexicon = parse_lexicon(Path(args.lexicon).read_text(encoding="utf-8-sig"))
    if not lexicon:
        raise ValueError(f"lexicon file {args.lexicon} defines no topics")
    records = load_csv(args.data).records
    groups = group_by_accommodation(records)

    def scorer(m, path):
        def scores(group):
            with _checkpoint_named(path):
                return model_scores(m, group)
        return scores

    rows = topic_overlap_report(
        groups,
        scorer(model, args.checkpoint),
        scorer(baseline, args.baseline_checkpoint),
        lexicon,
        n_samples=args.samples,
        seed=args.seed,
        stratify=args.stratify,
    )
    _write_or_print(format_overlap_table(rows), args.out)
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="revrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    p = sub.add_parser("ingest", help="validate a review CSV and report statistics")
    p.add_argument("--input", required=True, help="review CSV to validate")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument("--strict", action="store_true",
                   help="fail on the first malformed row instead of skipping")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic review corpus")
    p.add_argument("--out", required=True, help="CSV path to write")
    p.add_argument("--config", help="key=value generator config file")
    # Each dest names the SynthConfig field it sets; the metavar shows the flag's name.
    p.add_argument("--accommodations", type=int, dest="n_accommodations",
                   metavar="ACCOMMODATIONS", help="number of accommodations")
    p.add_argument("--reviews", dest="reviews_per_accommodation", metavar="REVIEWS",
                   help="reviews per accommodation, N or LO..HI")
    p.add_argument("--signal", type=float, dest="signal_strength", metavar="SIGNAL",
                   help="planted signal strength in [0,1]")
    p.add_argument("--vote-fraction", type=float, help="fraction of reviews with votes")
    p.add_argument("--score-noise", type=float,
                   help="std of review scores around the accommodation score")
    p.add_argument("--seed", type=int, help="generator seed")
    p.set_defaults(handler=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train a dual encoder on a review CSV")
    p.add_argument("--data", required=True, help="review CSV (will be split)")
    p.add_argument("--out", help="checkpoint directory to write")
    p.add_argument("--config", help="key=value training config file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named hyperparameter preset applied before the config file")
    p.add_argument("--split", default="0.8,0.1,0.1",
                   help="train,valid,test fractions (default 0.8,0.1,0.1)")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--warmup-fraction", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--loss", choices=LOSS_CHOICES)
    p.add_argument("--sampler", choices=[s.replace("_", "-") for s in SAMPLER_CHOICES])
    p.add_argument("--seed", type=int)
    p.add_argument("--d", type=int, help="latent dimension")
    p.add_argument("--d-e", type=int, help="token embedding dimension")
    p.add_argument("--min-frequency", type=int)
    p.add_argument("--max-vocab-size", type=int)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score ranking methods on a review CSV")
    p.add_argument("--checkpoint", help="trained model checkpoint (.npz)")
    p.add_argument("--data", required=True, help="review CSV to evaluate on")
    p.add_argument("--methods", default="model,votes",
                   help="comma-separated: model, votes, untrained")
    p.add_argument("--split", help="evaluate one part of a split, e.g. 0.8,0.1,0.1")
    p.add_argument("--part", choices=("train", "valid", "test"),
                   help="which split part to evaluate (with --split)")
    p.add_argument("--seed", type=int, default=0,
                   help="split and untrained-initialization seed")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("rank", help="rank one accommodation's reviews for a guest")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint (.npz)")
    p.add_argument("--reviews", required=True,
                   help="CSV of reviews, all from one accommodation")
    p.add_argument("--context", action="append", required=True, metavar="KEY=VALUE",
                   help="guest context field; repeat for guest_type, guest_country, "
                        "room_nights, month")
    p.add_argument("--top", type=int, default=10, help="how many reviews to print")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("compare", help="topic-overlap table of two checkpoints")
    p.add_argument("--checkpoint", required=True, help="model checkpoint (.npz)")
    p.add_argument("--baseline-checkpoint", required=True, help="baseline checkpoint (.npz)")
    p.add_argument("--data", required=True, help="review CSV to sample contexts from")
    p.add_argument("--lexicon", required=True, help="topic lexicon file")
    p.add_argument("--samples", type=int, default=8, help="number of sampled contexts")
    p.add_argument("--stratify", action="store_true",
                   help="spread samples evenly across guest types")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(handler=cmd_compare)

    return parser


# A failure is reported by the one stderr line below; numpy's overflow
# warnings on the way to a non-finite model would only repeat it there.
@np.errstate(over="ignore", invalid="ignore")
def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ValueError, FloatingPointError) as exc:  # bad flags, SchemaError, RowError, divergence
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
