"""Synthetic copy task for exercising the extraction gate.

Questions follow one template, ``what is COL_i when COL_j is VAL``, and the
target is the matching query sketch, ``select COL_i from tab where COL_j eq
VAL``. Keywords are predictable from position alone, so the generator head
can emit them; the column and value slots only exist in the source, so the
model must copy them through the gate. A slice of the value vocabulary is
held out of training entirely: getting those right at decode time is only
possible by copying, never by memorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import no_grad
from .model import GateConfig, GateModel

QUESTION_WORDS = ("what", "is", "when")
TARGET_WORDS = ("select", "from", "where", "eq", "tab")
SRC_LEN = 7
TGT_LEN = 8
# Indices into the fixed-shape source and target sequences.
SRC_SEL_POS = 2
SRC_COND_POS = 4
SRC_VALUE_POS = 6
TGT_VALUE_POS = 7
TGT_KEYWORD_POS = (0, 2, 4)  # select, from, where
# Held-out examples per batched decode. Bigger chunks make fewer, larger
# passes, but a chunk's activations are all live at once: decoding the
# default held-out set (200 examples) as one chunk raised the peak RSS of a
# 60-step `gate train` by about 7 MB.
_EVAL_CHUNK = 32


class TrainingDiverged(RuntimeError):
    """Loss left the finite range during optimization."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"loss became {loss!r} at step {step}")
        self.step = step
        self.loss = loss


@dataclass(frozen=True)
class CopyTaskConfig:
    d_model: int = 32
    n_cols: int = 4
    n_train_values: int = 40
    n_heldout_values: int = 10
    steps: int = 600
    batch_size: int = 16
    lr: float = 0.5
    eval_size: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("d_model", "n_cols", "n_train_values", "n_heldout_values", "steps", "batch_size", "eval_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.lr > 0:
            raise ValueError("lr must be positive")


@dataclass(frozen=True)
class CopyVocab:
    tokens: tuple[str, ...]
    col_ids: tuple[int, ...]
    train_value_ids: tuple[int, ...]
    heldout_value_ids: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.tokens.index(token)


def build_vocab(cfg: CopyTaskConfig) -> CopyVocab:
    tokens = ["<start>", *QUESTION_WORDS, *TARGET_WORDS]
    col_ids = []
    for i in range(cfg.n_cols):
        col_ids.append(len(tokens))
        tokens.append(f"col{i}")
    train_ids, heldout_ids = [], []
    for i in range(cfg.n_train_values + cfg.n_heldout_values):
        (train_ids if i < cfg.n_train_values else heldout_ids).append(len(tokens))
        tokens.append(f"val{i}")
    return CopyVocab(
        tokens=tuple(tokens),
        col_ids=tuple(col_ids),
        train_value_ids=tuple(train_ids),
        heldout_value_ids=tuple(heldout_ids),
    )


def make_example(vocab: CopyVocab, rng: np.random.Generator, heldout: bool) -> tuple[np.ndarray, np.ndarray]:
    """Sample one (source, target) pair from the grammar."""
    src, tgt = _draw_batch(vocab, rng, 1, heldout)
    return src[0], tgt[0]


def gate_config_for(cfg: CopyTaskConfig, vocab: CopyVocab) -> GateConfig:
    return GateConfig(
        vocab_size=vocab.size,
        d_model=cfg.d_model,
        max_src_len=SRC_LEN,
        max_tgt_len=TGT_LEN,
        start_id=0,
        seed=cfg.seed,
    )


@dataclass(frozen=True)
class CopyMetrics:
    """Held-out behaviour of a trained model."""

    n_examples: int
    value_copy_accuracy: float
    sequence_exact_match: float
    mean_p_ext_value: float
    mean_p_ext_keyword: float


@dataclass(frozen=True)
class TrainResult:
    model: GateModel = field(repr=False)
    vocab: CopyVocab
    history: list[tuple[int, float]]
    metrics: CopyMetrics


def _draw_batch(vocab: CopyVocab, rng: np.random.Generator, n: int, heldout: bool) -> tuple[np.ndarray, np.ndarray]:
    """``n`` examples as (n, SRC_LEN) and (n, TGT_LEN) id arrays. Each
    draws its selected column, condition column and value, in that order,
    one ``rng.integers`` call each."""
    what, is_, when = (vocab.id_of(w) for w in QUESTION_WORDS)
    select, from_, where, eq, tab = (vocab.id_of(w) for w in TARGET_WORDS)
    cols = vocab.col_ids
    pool = vocab.heldout_value_ids if heldout else vocab.train_value_ids
    draw = rng.integers
    draws = [(cols[draw(len(cols))], cols[draw(len(cols))], pool[draw(len(pool))]) for _ in range(n)]
    slots = np.array(draws, dtype=np.int64).reshape(n, 3)
    src = np.tile(np.array([what, is_, 0, when, 0, is_, 0], dtype=np.int64), (n, 1))
    tgt = np.tile(np.array([select, 0, from_, tab, where, 0, eq, 0], dtype=np.int64), (n, 1))
    src[:, [SRC_SEL_POS, SRC_COND_POS, SRC_VALUE_POS]] = slots
    tgt[:, [1, 5, TGT_VALUE_POS]] = slots
    return src, tgt


def evaluate_copy_model(model: GateModel, vocab: CopyVocab, n_examples: int, rng: np.random.Generator) -> CopyMetrics:
    """Greedy decoding plus gate statistics on held-out values, a chunk of
    examples at a time and without a tape."""
    value_hits = 0
    seq_hits = 0
    p_value: list[float] = []
    p_keyword: list[float] = []
    for start in range(0, n_examples, _EVAL_CHUNK):
        src, tgt = _draw_batch(vocab, rng, min(_EVAL_CHUNK, n_examples - start), heldout=True)
        decoded = np.asarray(model.decode_greedy(src, TGT_LEN))
        value_hits += int(np.sum(decoded[:, TGT_VALUE_POS] == tgt[:, TGT_VALUE_POS]))
        seq_hits += int(np.sum(np.all(decoded == tgt, axis=1)))
        with no_grad():
            gate = model.forward(src, tgt).activations["p_ext"][..., 0]
        p_value.extend(gate[:, TGT_VALUE_POS].tolist())
        p_keyword.extend(gate[:, TGT_KEYWORD_POS].ravel().tolist())
    return CopyMetrics(
        n_examples=n_examples,
        value_copy_accuracy=value_hits / n_examples,
        sequence_exact_match=seq_hits / n_examples,
        mean_p_ext_value=float(np.mean(p_value)),
        mean_p_ext_keyword=float(np.mean(p_keyword)),
    )


def train_copy_model(cfg: CopyTaskConfig, gated: bool = True, log_every: int = 25) -> TrainResult:
    """Train from scratch with plain SGD and evaluate on held-out values.

    The gated model and the gate-disabled ablation share initialization and
    data streams for the same seed, so the gate is the only difference.
    """
    vocab = build_vocab(cfg)
    model = GateModel(gate_config_for(cfg, vocab), gated=gated)
    train_seed, eval_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    train_rng = np.random.default_rng(train_seed)
    history: list[tuple[int, float]] = []
    for step in range(cfg.steps):
        src, tgt = _draw_batch(vocab, train_rng, cfg.batch_size, heldout=False)
        mean_loss, grads = model.loss_and_grads(src, tgt)
        if not np.isfinite(mean_loss):
            raise TrainingDiverged(step, mean_loss)
        model.sgd_step(grads, cfg.lr)
        if step % log_every == 0 or step == cfg.steps - 1:
            history.append((step, mean_loss))
    metrics = evaluate_copy_model(model, vocab, cfg.eval_size, np.random.default_rng(eval_seed))
    return TrainResult(model=model, vocab=vocab, history=history, metrics=metrics)
