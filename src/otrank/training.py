"""Joint training: loss, hand-written reverse-mode gradients, Adam, checkpoints.

The scoring graph is static per window (alignment features are constants
because embeddings and transport plans carry no trainable parameters), so
reverse-mode differentiation is written out by hand against the forward
records from :mod:`otrank.model` and :mod:`otrank.mutual_info`. A
finite-difference audit (:func:`gradcheck`) validates every tensor.

All arithmetic is float64 and every source of randomness flows from one
seed, so identical seeds produce bit-identical checkpoints.
"""

from __future__ import annotations

import copy
import json
import logging
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .corpus import Corpus
from .embeddings import EmbeddingStore, FrequencyTable, build_frequency_table
from .errors import CheckpointError
# extract_instance_features stays importable here: perfbench/tracing.py wraps it as a
# training attribute.
from .model import (  # noqa: F401
    ModelParams,
    WindowFeatures,
    extract_features,
    extract_instance_features,
    init_model_params,
    instance_windows,
    param_tensors,
    sigmoid,
    window_forward,
    zero_gradients,
)
from .mutual_info import build_pair_sets, mi_backward, mi_forward
from .sinkhorn import SinkhornSettings

logger = logging.getLogger(__name__)

CKPT_MAGIC = b"OTCK"
CKPT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 64
    gamma: float = 0.3
    epochs: int = 10
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    hidden_size: int = 400
    gcn_layers: int = 2
    sinkhorn_eps_scale: float = 0.1
    sinkhorn_max_iter: int = 500
    sinkhorn_tol: float = 1e-6

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")

    def sinkhorn_settings(self) -> SinkhornSettings:
        return SinkhornSettings(
            eps_scale=self.sinkhorn_eps_scale,
            max_iter=self.sinkhorn_max_iter,
            tol=self.sinkhorn_tol,
        )


def _forward_losses(batch: list[WindowFeatures], params: ModelParams, gamma: float):
    """Forward every window; returns (fwd records, mi records, as2 mean, mi mean)."""
    fwds = [window_forward(f, params) for f in batch]
    as2 = float(np.mean([f.loss_as2 for f in fwds]))
    if gamma == 0.0:
        return fwds, None, as2, 0.0
    mis = [
        mi_forward(fwd.hs[-1], build_pair_sets(f.labels), params.disc)
        for f, fwd in zip(batch, fwds)
    ]
    return fwds, mis, as2, float(np.mean([m.loss for m in mis]))


def joint_loss(batch: list[WindowFeatures], params: ModelParams, cfg: TrainConfig) -> float:
    """Mean candidate BCE plus ``gamma`` times the mean regularizer term."""
    if not batch:
        raise ValueError("batch must be nonempty")
    _, _, as2, mi = _forward_losses(batch, params, cfg.gamma)
    return as2 if cfg.gamma == 0.0 else as2 + cfg.gamma * mi


def _window_backward(
    feats: WindowFeatures,
    params: ModelParams,
    fwd,
    mi_fwd,
    s_as2: float,
    s_mi: float,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate one window's gradient contribution into ``grads``."""
    h_final = fwd.hs[-1]
    dh = np.zeros_like(h_final)

    # Scoring head: BCE-through-sigmoid collapses to (sigma(z) - y).
    y = 1.0 if feats.labels[0] else 0.0
    dlogit = s_as2 * (float(sigmoid(fwd.logit)) - y)
    grads["head.w2"] += dlogit * fwd.head_a1[None, :]
    grads["head.b2"] += dlogit
    da1 = dlogit * params.head.w2[0]
    dz1 = da1 * (fwd.head_z1 > 0)
    grads["head.w1"] += np.outer(dz1, h_final[0])
    grads["head.b1"] += dz1
    dh[0] += params.head.w1.T @ dz1

    if mi_fwd is not None and s_mi != 0.0:
        mi_backward(mi_fwd, params.disc, s_mi, grads, dh)

    # Graph layers, last to first; edge weights feed every layer.
    dalpha = np.zeros((3, 3))
    for l in range(len(params.gcn) - 1, -1, -1):
        layer = params.gcn[l]
        dz = dh * (fwd.pre[l] > 0)
        grads[f"gcn.{l}.w"] += dz.T @ fwd.aggregated[l]
        grads[f"gcn.{l}.b"] += dz.sum(axis=0)
        ds = dz @ layer.w
        dalpha += ds @ fwd.hs[l].T
        dh = fwd.alpha.T @ ds

    # Row softmax.
    du = fwd.alpha * (dalpha - np.sum(dalpha * fwd.alpha, axis=1, keepdims=True))

    # Dependency FFN; its inputs are alignment constants, so backprop stops here.
    du9 = du.reshape(9)
    grads["dep.w2"] += (du9 @ fwd.a1_dep)[None, :]
    grads["dep.b2"] += du9.sum()
    da1_dep = du9[:, None] * params.dep.w2[0][None, :]
    dz1_dep = da1_dep * (fwd.z1_dep > 0)
    grads["dep.w1"] += dz1_dep.T @ fwd.x_pairs
    grads["dep.b1"] += dz1_dep.sum(axis=0)


def loss_and_gradients(
    batch: list[WindowFeatures], params: ModelParams, cfg: TrainConfig
) -> tuple[float, dict[str, np.ndarray]]:
    """Joint loss plus exact reverse-mode derivatives for every tensor."""
    if not batch:
        raise ValueError("batch must be nonempty")
    fwds, mis, as2, mi = _forward_losses(batch, params, cfg.gamma)
    loss = as2 if cfg.gamma == 0.0 else as2 + cfg.gamma * mi
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss} on a batch of {len(batch)} windows")
    grads = zero_gradients(params)
    s_as2 = 1.0 / len(batch)
    s_mi = cfg.gamma / len(batch)
    for k, (feats, fwd) in enumerate(zip(batch, fwds)):
        _window_backward(feats, params, fwd, None if mis is None else mis[k],
                         s_as2, s_mi, grads)
    return loss, grads


def gradients(
    batch: list[WindowFeatures], params: ModelParams, cfg: TrainConfig
) -> dict[str, np.ndarray]:
    return loss_and_gradients(batch, params, cfg)[1]


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m=zero_gradients(params), v=zero_gradients(params), t=0)


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> AdamState:
    """One bias-corrected Adam update, in place, in fixed tensor order."""
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, theta in param_tensors(params).items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {theta.shape}"
                             f" for {name}")
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return state


@dataclass
class Checkpoint:
    params: ModelParams
    config: TrainConfig
    epoch: int
    adam: AdamState
    rng_state: dict
    freq_table: FrequencyTable | None = None


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_p_at_1: float | None
    dev_map: float | None
    dev_mrr: float | None
    wallclock_s: float


@dataclass
class TrainResult:
    final: Checkpoint
    best: Checkpoint  # highest dev MAP (== final when no dev split given)
    history: list[EpochRecord] = field(default_factory=list)


def _snapshot(params, cfg, epoch, adam, rng, ft) -> Checkpoint:
    return Checkpoint(
        params=copy.deepcopy(params),
        config=cfg,
        epoch=epoch,
        adam=copy.deepcopy(adam),
        rng_state=copy.deepcopy(rng.bit_generator.state),
        freq_table=ft,
    )


def extract_corpus_features(
    corpus: Corpus, store: EmbeddingStore, ft: FrequencyTable, settings: SinkhornSettings
) -> list[WindowFeatures]:
    """Alignment features for every window of a corpus, in corpus order,
    aligned in one batch."""
    return extract_features(instance_windows(corpus.instances), store, ft, settings)


def _dev_metrics(dev_feats, params):
    by_q: dict[str, list] = {}
    for f in dev_feats:
        by_q.setdefault(f.question_id, []).append(f)
    rows = []
    for qid, feats in by_q.items():
        labels = {f.window_id: f.labels[0] for f in feats}
        if not any(labels.values()):
            continue
        scored = [(f.window_id, window_forward(f, params).p) for f in feats]
        rows.append(metrics_mod.question_metrics(metrics_mod.rank_candidates(scored), labels))
    if not rows:
        return None, None, None
    n = len(rows)
    return (sum(r[0] for r in rows) / n, sum(r[1] for r in rows) / n,
            sum(r[2] for r in rows) / n)


def train(
    train_corpus: Corpus,
    store: EmbeddingStore,
    cfg: TrainConfig,
    dev_corpus: Corpus | None = None,
) -> TrainResult:
    """Run the full training loop; deterministic given ``cfg.seed``.

    Candidate windows are shuffled each epoch and consumed in batches of
    ``cfg.batch_size``. Missing embeddings fail during feature extraction,
    before the first epoch. The checkpoint with the best dev MAP is retained
    alongside the final one.
    """
    if not train_corpus.instances:
        raise ValueError("training corpus is empty")
    rng = np.random.default_rng(cfg.seed)
    params = init_model_params(rng, store.dim, cfg.hidden_size, cfg.gcn_layers)
    adam = AdamState.zeros(params)
    ft = build_frequency_table(train_corpus)
    settings = cfg.sinkhorn_settings()
    feats = extract_corpus_features(train_corpus, store, ft, settings)
    dev_feats = (
        extract_corpus_features(dev_corpus, store, ft, settings) if dev_corpus else None
    )

    history: list[EpochRecord] = []
    best: Checkpoint | None = None
    best_map = -1.0
    for epoch in range(1, cfg.epochs + 1):
        started = time.monotonic()
        order = rng.permutation(len(feats))
        total = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [feats[i] for i in order[lo : lo + cfg.batch_size]]
            try:
                loss, grads = loss_and_gradients(batch, params, cfg)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"epoch {epoch}, windows {lo}..{lo + len(batch)}: {exc}"
                ) from exc
            adam_step(params, grads, adam, cfg)
            total += loss * len(batch)
        train_loss = total / len(feats)
        p1 = ap = rr = None
        if dev_feats is not None:
            p1, ap, rr = _dev_metrics(dev_feats, params)
            if ap is not None and ap > best_map:
                best_map = ap
                best = _snapshot(params, cfg, epoch, adam, rng, ft)
        record = EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            dev_p_at_1=p1,
            dev_map=ap,
            dev_mrr=rr,
            wallclock_s=time.monotonic() - started,
        )
        history.append(record)
        logger.info(
            "epoch %d: train_loss=%.6f dev_p@1=%s dev_map=%s",
            epoch, train_loss, p1, ap,
        )
    final = _snapshot(params, cfg, cfg.epochs, adam, rng, ft)
    return TrainResult(final=final, best=best if best is not None else final, history=history)


# ---------------------------------------------------------------------------
# Checkpoint file format: magic OTCK, version, d, L, hidden, a JSON metadata
# blob (config, epoch, Adam step count, RNG state, frequency table), the
# parameter tensors in declaration order, the Adam moment tensors, then a
# trailing CRC32 of everything before it. All integers and floats little
# endian; tensors are float64.
# ---------------------------------------------------------------------------


def _pack_tensors(tensors: dict[str, np.ndarray]) -> bytes:
    parts = [struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


class _CkptReader:
    def __init__(self, raw: bytes, path: Path):
        self.raw, self.pos, self.path = raw, 0, path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"{self.path.name}: truncated checkpoint")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _unpack_tensors(rd: _CkptReader) -> dict[str, np.ndarray]:
    (count,) = rd.unpack("<I")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = rd.unpack("<H")
        name = rd.take(nlen).decode("utf-8")
        (ndim,) = rd.unpack("<B")
        shape = rd.unpack(f"<{ndim}I")
        size = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(rd.take(8 * size), dtype="<f8").reshape(shape).copy()
        out[name] = arr
    return out


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    tensors = param_tensors(ckpt.params)
    meta = {
        "config": asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "adam_t": ckpt.adam.t,
        "rng_state": ckpt.rng_state,
        "freq_table": None
        if ckpt.freq_table is None
        else {
            "counts": ckpt.freq_table.counts,
            "num_questions": ckpt.freq_table.num_questions,
        },
    }
    meta_raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = [
        CKPT_MAGIC,
        struct.pack(
            "<IIII",
            CKPT_VERSION,
            ckpt.params.dim,
            ckpt.params.layers,
            ckpt.params.hidden,
        ),
        struct.pack("<Q", len(meta_raw)),
        meta_raw,
        _pack_tensors(tensors),
        _pack_tensors(ckpt.adam.m),
        _pack_tensors(ckpt.adam.v),
    ]
    payload = b"".join(body)
    Path(path).write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _params_from_tensors(dim: int, layers: int, hidden: int,
                         tensors: dict[str, np.ndarray]) -> ModelParams:
    rng = np.random.default_rng(0)
    params = init_model_params(rng, dim, hidden, layers)
    expected = param_tensors(params)
    if set(expected) != set(tensors):
        raise CheckpointError("checkpoint tensor names do not match the model layout")
    for name, target in expected.items():
        if tensors[name].shape != target.shape:
            raise CheckpointError(
                f"tensor {name} has shape {tensors[name].shape}, expected {target.shape}"
            )
        target[...] = tensors[name]
    return params


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 4 or raw[:4] != CKPT_MAGIC:
        raise CheckpointError(f"{path.name}: bad magic, not a checkpoint")
    payload, crc_raw = raw[:-4], raw[-4:]
    (crc,) = struct.unpack("<I", crc_raw)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointError(f"{path.name}: CRC mismatch, file is corrupt")
    rd = _CkptReader(payload, path)
    rd.take(4)
    version, dim, layers, hidden = rd.unpack("<IIII")
    if version != CKPT_VERSION:
        raise CheckpointError(f"{path.name}: unsupported checkpoint version {version}")
    (meta_len,) = rd.unpack("<Q")
    meta = json.loads(rd.take(meta_len).decode("utf-8"))
    params = _params_from_tensors(dim, layers, hidden, _unpack_tensors(rd))
    adam = AdamState(m=_unpack_tensors(rd), v=_unpack_tensors(rd), t=meta["adam_t"])
    if rd.pos != len(payload):
        raise CheckpointError(f"{path.name}: trailing bytes in checkpoint")
    ft = None
    if meta["freq_table"] is not None:
        ft = FrequencyTable(
            counts=meta["freq_table"]["counts"],
            num_questions=meta["freq_table"]["num_questions"],
        )
    return Checkpoint(
        params=params,
        config=TrainConfig(**meta["config"]),
        epoch=meta["epoch"],
        adam=adam,
        rng_state=meta["rng_state"],
        freq_table=ft,
    )


@dataclass
class GradcheckReport:
    per_tensor: dict[str, float]
    step: float
    threshold: float

    @property
    def max_rel_err(self) -> float:
        return max(self.per_tensor.values())

    @property
    def ok(self) -> bool:
        return self.max_rel_err <= self.threshold


def gradcheck(
    seed: int = 0,
    step: float = 1e-4,
    threshold: float = 1e-4,
    dim: int = 6,
    hidden: int = 8,
    layers: int = 2,
    gamma: float = 0.3,
) -> GradcheckReport:
    """Compare analytic gradients against central finite differences.

    Builds a random micro-model and batch, then perturbs every parameter
    entry by ``+-step``. The relative error divides by
    ``max(|analytic|, |numeric|, 1e-3)`` so near-zero entries are judged on
    an absolute scale.
    """
    rng = np.random.default_rng(seed)
    params = init_model_params(rng, dim, hidden, layers)
    for tensor in param_tensors(params).values():
        tensor[...] = rng.uniform(-0.5, 0.5, size=tensor.shape)

    label_sets = [(True, True, False), (False, True, None), (True, None, None)]
    batch = [
        WindowFeatures(
            question_id="gc",
            window_id=f"w{k}",
            reps=rng.normal(size=(3, dim)),
            costs=rng.uniform(0.5, 2.0, size=3),
            labels=labels,
        )
        for k, labels in enumerate(label_sets)
    ]
    cfg = TrainConfig(learning_rate=1e-3, batch_size=len(batch), gamma=gamma,
                      epochs=0, seed=seed, hidden_size=hidden, gcn_layers=layers)

    analytic = gradients(batch, params, cfg)
    report: dict[str, float] = {}
    for name, theta in param_tensors(params).items():
        worst = 0.0
        flat = theta.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = joint_loss(batch, params, cfg)
            flat[k] = orig - step
            down = joint_loss(batch, params, cfg)
            flat[k] = orig
            numeric = (up - down) / (2.0 * step)
            a = a_flat[k]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-3))
        report[name] = float(worst)
    return GradcheckReport(per_tensor=report, step=step, threshold=threshold)
