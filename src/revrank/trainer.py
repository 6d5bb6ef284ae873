"""Training loop: AdamW with decoupled weight decay and linear warmup.

Both encoders are updated once per batch from the exact analytic gradients
of the configured loss.  Each training record is serialized and tokenized
once, for the vocabulary and for its token ids (``initialize_model``).  The
learning rate ramps linearly from zero over the first
ceil(warmup_fraction * total_steps) steps, then stays constant.
After every epoch the model is scored by validation MRR.  When that MRR
improves the best model is copied, after the old copy is freed, unless the
epoch is the last one; then, as when no epoch was validated, the best model
is the final model itself.  Both are kept (and written as checkpoints
when an output directory is given).  Runs are bit-reproducible for a fixed (data, config,
seed) triple; the training log's wall-clock column is the one
intentionally non-deterministic output.

A step pools each tower's batch once, for the forward and the backward
pass.  Then it runs one tower's backward and AdamW update, then the
other's (a backward reads only its own tower and the loss's gradients).
The embedding gradient holds only the rows the batch touched, and AdamW
gives gradient terms to those rows alone; every other row takes the exact
update of a +0.0 gradient (see ``optimizer_step``).  AdamW flags each
embedding chunk of ADAMW_BLOCK_ROWS rows once a batch reaches it; an
unflagged chunk's moments are all +0.0, and there the update reduces
exactly to the weight decay, so its moments are never read or written.
The AdamW moments are freed before writing.  So the peak is the model
(2 |V| x d_e tables), the moments (4) and, while an earlier epoch is best,
its copy (2): at most 8 float64 tables, about 108 MB at |V| = 26.4k,
d_e = 64.
"""

from __future__ import annotations

import itertools
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import config_to_text
from .contrastive import LOSSES, interaction_matrix
from .dataset import ReviewRecord, group_by_accommodation
from .encoder import (
    MAX_TOKENS,
    DualEncoder,
    EncoderGradients,
    EncoderParams,
    atomic_write,
    build_vocabulary,
    encode_backward_batch_ids,
    encode_batch_ids,
    init_model,
    pool_ids,
    save_checkpoint,
)
from .evaluation import TokenIds, model_rank_group, mrr, record_ids
from .sampling import in_accommodation_epoch, random_epoch
from .textualize import record_tokens

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.min_frequency < 1:
            raise ValueError(f"min_frequency must be >= 1, got {self.min_frequency}")
        if self.max_vocab_size < 1:
            raise ValueError(f"max_vocab_size must be >= 1, got {self.max_vocab_size}")
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


# Rows per chunk of the AdamW update.  At d_e = 64 a chunk of each of the six
# arrays it touches (parameter, gradient, both moments, two scratch buffers)
# is 256 KiB, 1.5 MiB in all, which fits a 2 MiB per-core L2 cache; 512 was
# the fastest of 128 to 2048 rows at |V| = 26.6k on such a Xeon.
ADAMW_BLOCK_ROWS = 512


@dataclass
class AdamWState:
    """First/second moment accumulators for one encoder's blocks.

    ``live_chunks[i]`` flags embedding chunk i, rows i*ADAMW_BLOCK_ROWS up
    to the next chunk.  It is worked out from the moments: a chunk is
    flagged when any of its ``m`` or ``v`` entries is not +0.0, bit for bit,
    so -0.0 counts.  ``zeros_like`` flags no chunk, and ``optimizer_step``
    flags a chunk once a batch reaches it.  Invariant: every ``m`` and ``v``
    entry of an unflagged chunk is +0.0.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    live_chunks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # Chunk by chunk, so that no temporary is the size of the table.
        starts = range(0, len(self.m["embedding"]), ADAMW_BLOCK_ROWS)
        self.live_chunks = np.zeros(len(starts), dtype=bool)
        for i, start in enumerate(starts):
            for moment in (self.m["embedding"], self.v["embedding"]):
                chunk = moment[start : start + ADAMW_BLOCK_ROWS]
                self.live_chunks[i] |= (np.signbit(chunk) | (chunk != 0)).any()

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "AdamWState":
        return cls(
            m={k: np.zeros_like(a) for k, a in params.blocks().items()},
            v={k: np.zeros_like(a) for k, a in params.blocks().items()},
        )


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
    buffers with ``out=``.

    The embedding has two classes of rows.  The rows the batch touched,
    ``grads.rows``, have their moments gathered and given the gradient
    terms m*b1 + (1-b1)*g and v*b2 + ((1-b2)*g)*g before any chunk is
    updated.  Every other row has gradient +0.0 (``np.bincount`` never sums
    to -0.0), so its terms are exactly m*b1 + 0.0 (the +0.0 turns -0.0
    into +0.0) and v*b2: v starts at +0.0 and only adds ((1-b2)*g)*g >= +0,
    so neither v nor v*b2 is ever -0.0.  Each chunk applies those two terms
    to all its rows, writes its touched rows' moments back over them, and
    runs the tail every row shares.  Projection and bias take every term
    chunk by chunk.  Each element thus goes through the operations of the
    whole-array expression fed the dense gradient, in the same order, so
    the result is bit-identical to it.

    Once the gradient is found finite, the chunks of ``grads.rows`` are
    flagged in ``state.live_chunks``.  An unflagged chunk has m = v = +0.0
    (the state's invariant) and gradient +0.0, so m*b1 + 0.0 and v*b2 are
    +0.0, sqrt(+0.0/v_correction) + eps is eps and +0.0/eps is +0.0: the
    update is exactly p -= (0.0 + weight_decay*p) * lr.  Such a chunk runs
    only that and leaves its moments alone.  A non-finite gradient raises
    FloatingPointError before its block is changed (for the embedding,
    before any flag is set).
    """
    if t < 1:
        raise ValueError(f"update count must be >= 1, got {t}")
    # The config accepts beta2 = -0.0, for which v*b2 could be -0.0; +0.0
    # changes no other bit.
    b1, b2 = config.beta1, config.beta2 + 0.0
    m_correction = 1 - b1**t
    v_correction = 1 - b2**t
    for name, param in params.blocks().items():
        m, v = state.m[name], state.v[name]
        sparse = name == "embedding"
        grad = grads.values if sparse else getattr(grads, name)
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient in {name}")
        starts = range(0, len(param), ADAMW_BLOCK_ROWS)
        if sparse:
            rows = grads.rows
            live = state.live_chunks
            live[rows // ADAMW_BLOCK_ROWS] = True
            touched_m, touched_v = m[rows], v[rows]
            _add_gradient(touched_m, touched_v, grad, np.empty_like(grad), b1, b2)
            # The touched rows of chunk i are rows[cuts[i]:cuts[i + 1]].
            cuts = np.searchsorted(rows, [*starts, len(param)]).tolist()
        scratch_a = np.empty_like(param[:ADAMW_BLOCK_ROWS])
        scratch_b = np.empty_like(scratch_a)
        for i, start in enumerate(starts):
            chunk = slice(start, start + ADAMW_BLOCK_ROWS)
            p, mc, vc = param[chunk], m[chunk], v[chunk]
            a, b = scratch_a[: len(p)], scratch_b[: len(p)]
            if sparse and not live[i]:
                # m = v = g = +0.0: the tail below reduces to this, bit for bit.
                np.multiply(config.weight_decay, p, out=a)
                a += 0.0
                a *= lr
                p -= a
                continue
            if sparse:
                mc *= b1
                mc += 0.0
                vc *= b2
                touched = slice(cuts[i], cuts[i + 1])
                local = rows[touched] - start
                mc[local] = touched_m[touched]
                vc[local] = touched_v[touched]
            else:
                _add_gradient(mc, vc, grad[chunk], a, b1, b2)
            np.divide(mc, m_correction, out=a)
            np.divide(vc, v_correction, out=b)
            np.sqrt(b, out=b)
            b += config.eps
            a /= b
            np.multiply(config.weight_decay, p, out=b)
            a += b
            a *= lr
            p -= a


def _add_gradient(m, v, g, scratch, b1: float, b2: float) -> None:
    """m <- m*b1 + (1-b1)*g and v <- v*b2 + ((1-b2)*g)*g, in place."""
    m *= b1
    np.multiply(1 - b1, g, out=scratch)
    m += scratch
    v *= b2
    np.multiply(1 - b2, g, out=scratch)
    scratch *= g
    v += scratch


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    val_mrr: float | None
    seconds: float


@dataclass
class TrainResult:
    model: DualEncoder  # after the last epoch
    # Highest validation MRR; ``model`` itself when the last epoch is best or
    # no epoch was validated.
    best_model: DualEncoder
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


def initialize_model(
    records: Sequence[ReviewRecord], config: TrainConfig
) -> tuple[DualEncoder, TokenIds]:
    """Vocabulary from the given (training) records plus fresh encoders, and
    the records' ``record_ids`` under that vocabulary.

    Each record is serialized and tokenized once, and its tokens are
    counted as they are made.  Each text keeps its first MAX_TOKENS tokens
    as references to one string per distinct token, never a string of its
    own; once the vocabulary is known, each text's list is rewritten in
    place with vocabulary ids.
    """
    if not records:
        raise ValueError("cannot initialize from an empty training split")
    # Each token maps to its first string, which every text then shares.
    # (Provisional int ids instead were a new object each above 256, and
    # raised train-widevocab's peak RSS by about 0.6 MB.)
    distinct: dict[str, str] = {}
    texts: list[list] = []

    def token_lists():
        for record in records:
            for tokens in record_tokens(record):
                # Rewritten in place, a slice keeps its exact size.
                head = tokens[:MAX_TOKENS]
                head[:] = map(distinct.setdefault, head, head)
                texts.append(head)
                yield tokens

    vocab = build_vocabulary(token_lists(), config.min_frequency, config.max_vocab_size)
    del distinct
    unk = itertools.repeat(vocab.unk_index)
    for text in texts:
        text[:] = map(vocab.index.get, text, unk)
    seeds = (_derive_seed(config.seed, 1), _derive_seed(config.seed, 2))
    return init_model(vocab, config.d, config.d_e, seeds), (texts[0::2], texts[1::2])


def train(
    train_records: Sequence[ReviewRecord],
    valid_records: Sequence[ReviewRecord],
    config: TrainConfig,
    out_dir: str | Path | None = None,
) -> TrainResult:
    """Fine-tune a fresh DualEncoder on the training split.

    Validation MRR is computed after each epoch on the accommodations of
    ``valid_records`` (those with at least 2 reviews), which are tokenized
    once.  The best model is copied when validation MRR improves before the
    last epoch (the old copy freed first); if the last epoch is best, or no
    epoch was validated, it is the final model itself.  So at most 8
    |V| x d_e tables are alive.  It and the final model are returned,
    and written to ``out_dir`` as best.npz / final.npz with the training log,
    the vocabulary and a config echo when a directory is given.  Each file
    is replaced atomically, so a failed write leaves no partial file behind.
    A batch or validation group that ``interaction_matrix`` cannot score
    (non-finite embeddings or NaN dot products), or a non-finite batch loss,
    raises FloatingPointError("training diverged at epoch E ...").
    """
    model, (context_ids, review_ids) = initialize_model(train_records, config)
    groups = group_by_accommodation(train_records)
    valid_groups = []
    if valid_records:
        valid_groups = [g for g in group_by_accommodation(valid_records) if len(g) >= 2]

    valid = [(g, record_ids(model.vocab, g.records)) for g in valid_groups]

    steps_per_epoch = len(_epoch_plan(train_records, groups, config, 0))
    total_steps = max(config.epochs * steps_per_epoch, 1)

    towers = (model.context, model.review)
    states = [AdamWState.zeros_like(params) for params in towers]
    result = TrainResult(model=model, best_model=None, best_epoch=None)
    best_val = -math.inf
    step = 0

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        batches = _epoch_plan(train_records, groups, config, epoch - 1)
        loss_total = 0.0
        for b_idx, batch in enumerate(batches):
            try:
                # Each tower's batch is pooled once, for both of its passes.
                pooled = [pool_ids(params, [ids[i] for i in batch.indices])
                          for params, ids in zip(towers, (context_ids, review_ids))]
                out = LOSSES[config.loss](interaction_matrix(
                    *[encode_batch_ids(params, p) for params, p in zip(towers, pooled)]))
                if not math.isfinite(out.loss):
                    raise FloatingPointError
            except FloatingPointError:
                acc = batch.accommodation_id or "-"
                raise FloatingPointError(
                    f"training diverged at epoch {epoch} batch {b_idx} "
                    f"(accommodation {acc}, records {batch.indices})"
                ) from None
            loss_total += out.loss
            lr = lr_schedule(step, total_steps, config.learning_rate, config.warmup_fraction)
            step += 1
            upstreams = (out.grad_contexts, out.grad_reviews)
            for i, params in enumerate(towers):  # by index: no loop name keeps a state alive
                grads = encode_backward_batch_ids(params, pooled[i], upstreams[i])
                optimizer_step(params, grads, states[i], step, lr, config)

        val_mrr = None
        if valid_groups:
            try:
                val_mrr = mrr([model_rank_group(model, g, ids) for g, ids in valid])
            except FloatingPointError:
                raise FloatingPointError(
                    f"training diverged at epoch {epoch}: validation scores are not finite"
                ) from None
            if val_mrr > best_val:
                best_val, result.best_epoch = val_mrr, epoch
                result.best_model = None  # release the old copy before making the new one
                # No later epoch changes the model after the last one.
                result.best_model = model if epoch == config.epochs else model.copy()
        mean_loss = loss_total / max(len(batches), 1)
        result.epochs.append(EpochStats(epoch, mean_loss, val_mrr, time.perf_counter() - started))

    del states
    if result.best_epoch is None:  # no epoch was validated
        result.best_model = model

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, out_dir / "final.npz")
        if result.best_model is model:  # the same bytes, copied
            with open(out_dir / "final.npz", "rb") as source, \
                    atomic_write(out_dir / "best.npz") as handle:
                shutil.copyfileobj(source, handle)
        else:
            save_checkpoint(result.best_model, out_dir / "best.npz")
        texts = {
            "train_log.txt": result.log_text(),
            "vocabulary.txt": "\n".join(model.vocab.tokens) + "\n",
            "config.txt": config_to_text(config),
        }
        for name, text in texts.items():
            with atomic_write(out_dir / name) as handle:
                handle.write(text.encode("utf-8"))
    return result
