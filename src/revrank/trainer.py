"""Training loop: AdamW with decoupled weight decay and linear warmup.

Both encoders are updated once per batch from the exact analytic gradients
of the configured loss.  The learning rate ramps linearly from zero over
the first ceil(warmup_fraction * total_steps) steps, then stays constant.
After every epoch the model is scored by validation MRR; the best and the
final models are both kept (and written as checkpoints when an output
directory is given).  Runs are bit-reproducible for a fixed
(data, config, seed) triple; the training log's wall-clock column is the
one intentionally non-deterministic output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import config_to_text
from .contrastive import LOSSES, score_ids
from .dataset import ReviewRecord, group_by_accommodation
from .encoder import (
    DualEncoder,
    EncoderGradients,
    EncoderParams,
    atomic_write,
    build_vocabulary,
    encode_backward_batch_ids,
    init_params,
    save_checkpoint,
    tokenize,
)
from .evaluation import model_rank_group, mrr, record_ids
from .sampling import in_accommodation_epoch, random_epoch
from .textualize import serialize_record

LOSS_CHOICES = tuple(LOSSES)
SAMPLER_CHOICES = ("random", "in_accommodation")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    weight_decay: float = 0.01
    warmup_fraction: float = 0.05
    epochs: int = 4
    batch_size: int = 16
    loss: str = "infonce"
    sampler: str = "in_accommodation"
    seed: int = 0
    d: int = 64
    d_e: int = 64
    min_frequency: int = 1
    max_vocab_size: int = 50000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.loss not in LOSS_CHOICES:
            raise ValueError(f"loss must be one of {LOSS_CHOICES}, got {self.loss!r}")
        if self.sampler not in SAMPLER_CHOICES:
            raise ValueError(
                f"sampler must be one of {SAMPLER_CHOICES}, got {self.sampler!r}"
            )
        if self.d < 1 or self.d_e < 1:
            raise ValueError(f"dimensions must be positive, got d={self.d} d_e={self.d_e}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError("moment coefficients must be in [0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")


# The paper-scale preset keeps the published fine-tuning hyperparameters;
# the desk preset is sized for the from-scratch encoder on synthetic data.
PRESETS = {
    "paper": TrainConfig(learning_rate=3e-5, batch_size=64),
    "desk": TrainConfig(learning_rate=1e-2, batch_size=16),
}

def lr_schedule(step: int, total_steps: int, base_lr: float, warmup_fraction: float) -> float:
    """Linear ramp 0 -> base_lr over the warmup steps, then constant."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = math.ceil(warmup_fraction * total_steps)
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr


@dataclass
class AdamWState:
    """First/second moment accumulators for one encoder's blocks."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "AdamWState":
        return cls(
            m={k: np.zeros_like(a) for k, a in params.blocks().items()},
            v={k: np.zeros_like(a) for k, a in params.blocks().items()},
        )


# Rows per chunk of the AdamW update.  At d_e = 64 a chunk of each of the six
# arrays it touches (parameter, gradient, both moments, two scratch buffers)
# is 256 KiB, 1.5 MiB in all, which fits a 2 MiB per-core L2 cache; 512 was
# the fastest of 128 to 2048 rows at |V| = 26.6k on such a Xeon.
ADAMW_BLOCK_ROWS = 512


def optimizer_step(
    params: EncoderParams,
    grads: EncoderGradients,
    state: AdamWState,
    t: int,
    lr: float,
    config: TrainConfig,
) -> None:
    """One bias-corrected AdamW update, in place.

    Weight decay is decoupled: p <- p - lr * (m_hat / (sqrt(v_hat) + eps)
    + weight_decay * p).  ``t`` is the 1-based update count.

    Decoupled decay changes every row, so the update is dense.  Evaluated
    whole, each of its steps would make a temporary the size of the block
    (|V| x d_e for the embedding) and stream it through memory.  Instead it
    runs over chunks of ADAMW_BLOCK_ROWS rows, writing into two scratch
    buffers with ``out=``.  Every element still goes through the same
    operations in the same order, so the result is bit-identical to the
    whole-array expression.  A non-finite gradient raises FloatingPointError
    before its chunk is changed.
    """
    if t < 1:
        raise ValueError(f"update count must be >= 1, got {t}")
    b1, b2 = config.beta1, config.beta2
    m_correction = 1 - b1**t
    v_correction = 1 - b2**t
    for name, param in params.blocks().items():
        grad = grads.blocks()[name]
        scratch_a = np.empty_like(param[:ADAMW_BLOCK_ROWS])
        scratch_b = np.empty_like(scratch_a)
        for start in range(0, len(param), ADAMW_BLOCK_ROWS):
            rows = slice(start, start + ADAMW_BLOCK_ROWS)
            p, g, m, v = param[rows], grad[rows], state.m[name][rows], state.v[name][rows]
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient in {name}")
            a, b = scratch_a[: len(p)], scratch_b[: len(p)]
            m *= b1
            np.multiply(1 - b1, g, out=a)
            m += a
            v *= b2
            np.multiply(1 - b2, g, out=a)
            a *= g
            v += a
            np.divide(m, m_correction, out=a)
            np.divide(v, v_correction, out=b)
            np.sqrt(b, out=b)
            b += config.eps
            a /= b
            np.multiply(config.weight_decay, p, out=b)
            a += b
            a *= lr
            p -= a


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    val_mrr: float | None
    seconds: float


@dataclass
class TrainResult:
    model: DualEncoder  # after the last epoch
    best_model: DualEncoder  # highest validation MRR (final when no validation)
    best_epoch: int | None
    epochs: list[EpochStats] = field(default_factory=list)

    def log_text(self) -> str:
        lines = []
        for s in self.epochs:
            val = "-" if s.val_mrr is None else f"{s.val_mrr:.6f}"
            lines.append(
                f"epoch={s.epoch} mean_loss={s.mean_loss:.6f} "
                f"val_mrr={val} seconds={s.seconds:.3f}"
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _derive_seed(base: int, stream: int) -> int:
    return int(np.random.SeedSequence([base, stream]).generate_state(1)[0])


def _epoch_plan(records, groups, config: TrainConfig, epoch: int):
    seed = _derive_seed(config.seed, 1000 + epoch)
    if config.sampler == "random":
        return random_epoch(records, config.batch_size, seed)
    return in_accommodation_epoch(groups, config.batch_size, seed)


def initialize_model(records: Sequence[ReviewRecord], config: TrainConfig) -> DualEncoder:
    """Vocabulary from the given (training) records plus fresh encoders."""
    if not records:
        raise ValueError("cannot initialize from an empty training split")
    token_lists = []
    for record in records:
        ctx_text, rev_text = serialize_record(record)
        token_lists.append(tokenize(ctx_text))
        token_lists.append(tokenize(rev_text))
    vocab = build_vocabulary(
        token_lists, min_frequency=config.min_frequency, max_size=config.max_vocab_size
    )
    return DualEncoder(
        vocab=vocab,
        context=init_params(
            d=config.d, d_e=config.d_e, vocab_size=len(vocab),
            seed=_derive_seed(config.seed, 1),
        ),
        review=init_params(
            d=config.d, d_e=config.d_e, vocab_size=len(vocab),
            seed=_derive_seed(config.seed, 2),
        ),
    )


def train(
    train_records: Sequence[ReviewRecord],
    valid_records: Sequence[ReviewRecord],
    config: TrainConfig,
    out_dir: str | Path | None = None,
) -> TrainResult:
    """Fine-tune a fresh DualEncoder on the training split.

    Validation MRR is computed after each epoch on the accommodations of
    ``valid_records`` (those with at least 2 reviews), which are tokenized
    once; the best-validation and final models are both returned, and
    written to ``out_dir`` as best.npz / final.npz alongside the training
    log, the vocabulary, and a config echo when a directory is given.  Each
    file is replaced atomically, so a failed write leaves no partial file
    behind.  A batch or validation group that ``score_ids`` cannot score
    (non-finite embeddings or NaN dot products), or a non-finite batch loss,
    raises FloatingPointError("training diverged at epoch E ...").
    """
    model = initialize_model(train_records, config)
    groups = group_by_accommodation(train_records)
    valid_groups = (
        [g for g in group_by_accommodation(valid_records) if len(g) >= 2]
        if valid_records
        else []
    )

    context_ids, review_ids = record_ids(model.vocab, train_records)
    valid = [(g, record_ids(model.vocab, g.records)) for g in valid_groups]

    loss_fn = LOSSES[config.loss]
    steps_per_epoch = len(_epoch_plan(train_records, groups, config, 0).batches)
    total_steps = max(config.epochs * steps_per_epoch, 1)

    ctx_state = AdamWState.zeros_like(model.context)
    rev_state = AdamWState.zeros_like(model.review)
    result = TrainResult(model=model, best_model=model.copy(), best_epoch=None)
    best_val = -math.inf
    step = 0

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        plan = _epoch_plan(train_records, groups, config, epoch - 1)
        loss_total = 0.0
        for b_idx, batch in enumerate(plan.batches):
            ctx_batch = [context_ids[i] for i in batch.indices]
            rev_batch = [review_ids[i] for i in batch.indices]
            try:
                out = loss_fn(score_ids(model, ctx_batch, rev_batch))
                if not math.isfinite(out.loss):
                    raise FloatingPointError
            except FloatingPointError:
                acc = batch.accommodation_id or "-"
                raise FloatingPointError(
                    f"training diverged at epoch {epoch} batch {b_idx} "
                    f"(accommodation {acc}, records {batch.indices})"
                ) from None
            loss_total += out.loss
            grads_ctx = encode_backward_batch_ids(model.context, ctx_batch, out.grad_contexts)
            grads_rev = encode_backward_batch_ids(model.review, rev_batch, out.grad_reviews)
            lr = lr_schedule(step, total_steps, config.learning_rate, config.warmup_fraction)
            step += 1
            optimizer_step(model.context, grads_ctx, ctx_state, step, lr, config)
            optimizer_step(model.review, grads_rev, rev_state, step, lr, config)

        val_mrr = None
        if valid_groups:
            try:
                val_mrr = mrr([model_rank_group(model, g, ids) for g, ids in valid])
            except FloatingPointError:
                raise FloatingPointError(
                    f"training diverged at epoch {epoch}: validation scores are not finite"
                ) from None
            if val_mrr > best_val:
                best_val = val_mrr
                result.best_model = model.copy()
                result.best_epoch = epoch
        result.epochs.append(
            EpochStats(
                epoch=epoch,
                mean_loss=loss_total / max(len(plan.batches), 1),
                val_mrr=val_mrr,
                seconds=time.perf_counter() - started,
            )
        )

    if not valid_groups:
        result.best_model = model.copy()
        result.best_epoch = None
    result.model = model

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(result.model, out_dir / "final.npz")
        save_checkpoint(result.best_model, out_dir / "best.npz")
        texts = {
            "train_log.txt": result.log_text(),
            "vocabulary.txt": "\n".join(model.vocab.to_tokens()) + "\n",
            "config.txt": config_to_text(config),
        }
        for name, text in texts.items():
            with atomic_write(out_dir / name) as handle:
                handle.write(text.encode("utf-8"))
    return result
