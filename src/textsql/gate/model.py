"""A small encoder-decoder wrapped around the extraction gate.

One self-attention + feed-forward block on each side with learned positional
embeddings and a shared token embedding. The decoder has no cross-attention
block of its own: every bit of source information reaches the output through
the gate layer, which makes the copy-versus-generate split observable.

Id arrays are one sequence, shape (S,) or (T,), or a batch of equal-length
sequences, shape (B, S) or (B, T). A batch is one graph; a single sequence
runs as a batch of one and comes back without the batch axis.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, add, block, block_forward, nll, no_grad, reshape, take_rows, tmean
from .layers import GateActivations, GateParams, run_gate

PARAMS_FORMAT_VERSION = 1
_LOG_FLOOR = 1e-12
_MASK_OFF = -1e9
# The weights of a side's block, in the argument order of ``block``.
_BLOCK = ("wq", "wk", "wv", "wo", "ff_w1", "ff_b1", "ff_w2", "ff_b2")


@dataclass(frozen=True)
class GateConfig:
    """Model dimensions and the run seed."""

    vocab_size: int
    d_model: int
    max_src_len: int
    max_tgt_len: int
    start_id: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        for name in ("d_model", "max_src_len", "max_tgt_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.start_id < self.vocab_size:
            raise ValueError("start_id must be a vocabulary id")


@dataclass(frozen=True)
class ForwardPass:
    """Teacher-forced pass: activations plus the training loss.

    For a batch, ``per_position_loss`` is (B, T) and ``loss`` is the batch
    mean of each example's mean NLL.
    """

    activations: GateActivations
    per_position_loss: np.ndarray
    loss: float
    loss_tensor: Tensor = field(repr=False)


class GateModel:
    """Encoder-decoder with a gated extraction output layer.

    ``gated=False`` forces the copy probability to zero (the ablation); the
    architecture and parameter count stay identical so the two variants are
    directly comparable.
    """

    def __init__(self, cfg: GateConfig, gated: bool = True):
        self.cfg = cfg
        self.gated = gated
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(cfg.seed))

    # ------------------------------------------------------------------
    # Parameters

    def _add_param(self, name: str, data: np.ndarray):
        self.params[name] = Tensor(data, requires_grad=True)

    def _init_params(self, rng: np.random.Generator):
        cfg = self.cfg
        d, v = cfg.d_model, cfg.vocab_size

        def norm(*shape):
            return rng.normal(0.0, shape[0] ** -0.5, size=shape)

        self._add_param("emb", rng.normal(0.0, d**-0.5, size=(v, d)))
        self._add_param("pos_src", rng.normal(0.0, d**-0.5, size=(cfg.max_src_len, d)))
        self._add_param("pos_tgt", rng.normal(0.0, d**-0.5, size=(cfg.max_tgt_len, d)))
        for side in ("enc", "dec"):
            for proj in ("wq", "wk", "wv", "wo"):
                self._add_param(f"{side}.{proj}", norm(d, d))
            self._add_param(f"{side}.ff_w1", norm(d, 2 * d))
            self._add_param(f"{side}.ff_b1", np.zeros(2 * d))
            self._add_param(f"{side}.ff_w2", norm(2 * d, d))
            self._add_param(f"{side}.ff_b2", np.zeros(d))
        self._add_param("gate.w_q", norm(d, d))
        self._add_param("gate.w_kv", norm(d, d))
        self._add_param("gate.ff_w", norm(d, d))
        self._add_param("gate.ff_b", np.zeros(d))
        for part in ("dec", "ctx"):
            self._add_param(f"gate.ln_{part}_gain", np.ones(d))
            self._add_param(f"gate.ln_{part}_bias", np.zeros(d))
        self._add_param("gate.gate_w", norm(2 * d, 1))
        self._add_param("gate.gate_b", np.zeros(1))
        self._add_param("gate.out_w", norm(d, v))
        self._add_param("gate.out_b", np.zeros(v))

    def gate_params(self) -> GateParams:
        """The ``gate.<field>`` parameters as the fields of ``GateParams``."""
        return GateParams(**{n.removeprefix("gate."): self.params[n] for n in self.gate_param_names()})

    def gate_param_names(self) -> list[str]:
        return sorted(n for n in self.params if n.startswith("gate."))

    # ------------------------------------------------------------------
    # Forward

    def _check_ids(self, ids: np.ndarray, limit: int, name: str) -> np.ndarray:
        """Validate an id sequence or batch; always returns a (B, n) batch."""
        ids = np.asarray(ids)
        if ids.ndim not in (1, 2) or ids.size == 0:
            raise ValueError(f"{name} must be a non-empty flat id sequence or a batch of them")
        if ids.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integer ids, got dtype {ids.dtype}")
        if ids.shape[-1] > limit:
            raise ValueError(f"{name} longer than the configured maximum ({ids.shape[-1]} > {limit})")
        if ids.min() < 0 or ids.max() >= self.cfg.vocab_size:
            raise ValueError(f"{name} out of vocabulary range")
        return ids.reshape(-1, ids.shape[-1]).astype(np.int64, copy=False)

    def _block(self, x: Tensor, side: str, mask: np.ndarray | None) -> Tensor:
        return block(x, *(self.params[f"{side}.{n}"] for n in _BLOCK), mask=mask)

    def _encode(self, src_ids: np.ndarray) -> Tensor:
        n = src_ids.shape[-1]
        x = add(take_rows(self.params["emb"], src_ids), take_rows(self.params["pos_src"], np.arange(n)))
        return self._block(x, "enc", None)

    def _decode_states(self, dec_in: np.ndarray) -> Tensor:
        n = dec_in.shape[-1]
        x = add(take_rows(self.params["emb"], dec_in), take_rows(self.params["pos_tgt"], np.arange(n)))
        mask = np.triu(np.full((n, n), _MASK_OFF), k=1)
        return self._block(x, "dec", mask)

    def _states(self, src: np.ndarray, tgt: np.ndarray) -> tuple[Tensor, Tensor]:
        """Encoder and teacher-forced decoder states for checked id batches.
        No ``gate.*`` parameter reaches them."""
        start = np.full((tgt.shape[0], 1), self.cfg.start_id)
        dec_in = np.concatenate([start, tgt[:, :-1]], axis=1)
        return self._encode(src), self._decode_states(dec_in)

    def _head(
        self,
        params: GateParams,
        h_enc: Tensor,
        h_dec: Tensor,
        src: np.ndarray,
        tgt: np.ndarray,
    ) -> tuple[dict[str, Tensor], Tensor, Tensor]:
        """The gate's tensors with ``params`` on the states, then the
        per-position NLL, (..., B, T), and its mean over the batch and the
        positions: a scalar, or one mean per parameter copy when ``params``
        have a broadcast copy axis."""
        tensors = run_gate(h_enc, h_dec, src, params, gated=self.gated)
        losses = nll(tensors["o_final"], tgt, _LOG_FLOOR)
        # Equal lengths, so the mean over every position of a batch is the
        # mean of its examples' means.
        return tensors, losses, tmean(reshape(losses, (*losses.shape[:-2], -1)), axis=-1)

    def _check_pair(self, src_ids, tgt_ids) -> tuple[np.ndarray, np.ndarray]:
        src = self._check_ids(src_ids, self.cfg.max_src_len, "src_ids")
        tgt = self._check_ids(tgt_ids, self.cfg.max_tgt_len, "tgt_ids")
        if np.ndim(tgt_ids) != np.ndim(src_ids) or src.shape[0] != tgt.shape[0]:
            raise ValueError(f"src_ids and tgt_ids must agree on the batch: {np.shape(src_ids)} vs {np.shape(tgt_ids)}")
        return src, tgt

    def forward(self, src_ids, tgt_ids) -> ForwardPass:
        """Teacher-forced pass with per-position negative log likelihood."""
        single = np.ndim(src_ids) == 1
        src, tgt = self._check_pair(src_ids, tgt_ids)
        tensors, losses, loss = self._head(self.gate_params(), *self._states(src, tgt), src, tgt)
        # Copies, so that writing to them cannot reach the tape.
        row = 0 if single else slice(None)
        snapshot = GateActivations(**{k: t.data[row].copy() for k, t in tensors.items()})
        return ForwardPass(snapshot, losses.data[row].copy(), float(loss.data), loss)

    def loss_and_grads(self, src_ids, tgt_ids) -> tuple[float, dict[str, np.ndarray]]:
        """One backward pass over one example or a batch; gradients (batch
        means for a batch) are returned, not stored."""
        for t in self.params.values():
            t.grad = None
        fp = self.forward(src_ids, tgt_ids)
        fp.loss_tensor.backward()
        grads = {}
        for name, t in self.params.items():
            grads[name] = np.zeros_like(t.data) if t.grad is None else t.grad
            t.grad = None
        return fp.loss, grads

    def sgd_step(self, grads: dict[str, np.ndarray], lr: float):
        for name, t in self.params.items():
            t.data = t.data - lr * grads[name]

    def decode_greedy(self, src_ids, n_steps: int) -> list[int] | list[list[int]]:
        """Argmax decoding for a fixed number of steps: a token list for one
        source sequence, one list per row for a batch.

        The encoder runs once, with no tape. The decoder is one causal
        block, so a position's state depends only on the positions up to
        it: each step runs the block on the newest position alone, against
        the keys and values kept from the steps before (``block_forward``'s
        ``past``), and reads the gate on that one state.
        """
        single = np.ndim(src_ids) == 1
        src_ids = self._check_ids(src_ids, self.cfg.max_src_len, "src_ids")
        limit = self.cfg.max_tgt_len
        if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or not 1 <= n_steps <= limit:
            raise ValueError(f"n_steps must be an integer from 1 to the target length {limit}, got {n_steps!r}")
        p = self.params
        weights = [p[f"dec.{n}"].data for n in _BLOCK]
        params = self.gate_params()
        tokens = np.full(src_ids.shape[0], self.cfg.start_id, dtype=np.int64)
        out, past = [], None
        with no_grad():
            h_enc = self._encode(src_ids)
            for t in range(n_steps):
                x = (p["emb"].data[tokens] + p["pos_tgt"].data[t])[:, None]
                state, saved = block_forward(x, *weights, past=past)
                past = saved[1:3]
                o_final = run_gate(h_enc, Tensor(state), src_ids, params, gated=self.gated)["o_final"]
                tokens = np.argmax(o_final.data[:, -1], axis=-1)
                out.append(tokens)
        decoded = np.stack(out, axis=1).tolist()
        return decoded[0] if single else decoded


# ----------------------------------------------------------------------
# Serialization: a flat float64 blob plus a JSON sidecar describing it.


def sidecar_path(blob_path: str | Path) -> Path:
    """Where the sidecar of the blob at ``blob_path`` goes: beside it."""
    blob_path = Path(blob_path)
    return blob_path.with_name(blob_path.name + ".json")


def encode_params(model: GateModel) -> tuple[bytes, str]:
    """The blob's bytes and the sidecar's text for ``model``.

    The sidecar pins the format version, dtype, config, and the name, shape,
    and order of every array in the blob, so a load can verify byte layout.
    """
    names = sorted(model.params)
    arrays = [model.params[n].data for n in names]
    blob = np.concatenate([a.reshape(-1) for a in arrays]).astype(np.float64)
    sidecar = {
        "version": PARAMS_FORMAT_VERSION,
        "dtype": "float64",
        "gated": model.gated,
        "config": asdict(model.cfg),
        "params": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
    }
    return blob.tobytes(), json.dumps(sidecar, indent=2, sort_keys=True) + "\n"


class ParamsFormatError(ValueError):
    """The blob or sidecar does not describe a loadable parameter set."""


def load_params(blob_path: str | Path) -> GateModel:
    """Rebuild a model from a blob and sidecar with the contents that
    :func:`encode_params` gives, the sidecar at ``sidecar_path(blob_path)``."""
    blob_path = Path(blob_path)
    try:
        sidecar = json.loads(sidecar_path(blob_path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParamsFormatError(f"cannot read sidecar for {blob_path}: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise ParamsFormatError(f"sidecar must hold a JSON object, got {type(sidecar).__name__}")
    if sidecar.get("version") != PARAMS_FORMAT_VERSION:
        raise ParamsFormatError(f"unsupported params version {sidecar.get('version')!r}")
    if sidecar.get("dtype") != "float64":
        raise ParamsFormatError(f"unsupported dtype {sidecar.get('dtype')!r}")
    gated = sidecar.get("gated", True)
    if not isinstance(gated, bool):
        raise ParamsFormatError(f"gated must be true or false, got {gated!r}")
    try:
        model = GateModel(GateConfig(**sidecar["config"]), gated=gated)
        entries = [(e["name"], tuple(int(s) for s in e["shape"])) for e in sidecar["params"]]
        names_match = sorted(n for n, _ in entries) == sorted(model.params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParamsFormatError(f"malformed sidecar: {exc}") from exc
    if not names_match:
        raise ParamsFormatError("sidecar parameter names do not match the architecture")
    flat = np.frombuffer(blob_path.read_bytes(), dtype=np.float64)
    expected = sum(int(np.prod(shape)) for _, shape in entries)
    if flat.size != expected:
        raise ParamsFormatError(f"blob holds {flat.size} values, sidecar describes {expected}")
    offset = 0
    for name, shape in entries:
        size = int(np.prod(shape))
        if model.params[name].shape != shape:
            raise ParamsFormatError(f"shape mismatch for {name}: {shape} vs {model.params[name].shape}")
        model.params[name].data = flat[offset : offset + size].reshape(shape).copy()
        offset += size
    return model
