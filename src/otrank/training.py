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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .corpus import Corpus
from .embeddings import EmbeddingStore, FrequencyTable, build_frequency_table
from .errors import CheckpointError, EmptyInputError
from .model import (
    FORWARD_CHUNK,
    Forward,
    ModelParams,
    WindowFeatures,
    add_in_order,
    extract_features,
    forward,
    init_model_params,
    instance_windows,
    param_tensors,
    sigmoid,
    zero_gradients,
)
from .mutual_info import MIForward, WindowPairs, build_pair_sets, mi_backward, mi_forward
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


@dataclass(frozen=True)
class WindowBatch:
    """Stacked training inputs of B windows: what one step reads.

    :func:`train` stacks each split once and takes every batch by row index,
    so the label-derived MI pairs are worked out once per split.
    """

    reps: np.ndarray  # (B, 3, d)
    costs: np.ndarray  # (B, 3)
    y: np.ndarray  # (B,) candidate labels as 1.0 / 0.0
    pairs: WindowPairs

    @classmethod
    def stack(cls, feats: list[WindowFeatures]) -> "WindowBatch":
        return cls(
            reps=np.stack([f.reps for f in feats]),
            costs=np.stack([f.costs for f in feats]),
            y=np.array([1.0 if f.labels[0] else 0.0 for f in feats]),
            pairs=WindowPairs.of([build_pair_sets(f.labels) for f in feats]),
        )

    def take(self, rows) -> "WindowBatch":
        return WindowBatch(reps=self.reps[rows], costs=self.costs[rows], y=self.y[rows],
                           pairs=self.pairs.take(rows))

    def __len__(self) -> int:
        return len(self.y)


def _stacked(batch) -> WindowBatch:
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    return batch if isinstance(batch, WindowBatch) else WindowBatch.stack(batch)


def _mean_terms(batch: WindowBatch, params: ModelParams, gamma: float,
                grads: dict[str, np.ndarray] | None = None) -> tuple[float, float]:
    """Mean candidate BCE and mean regularizer term over the batch.

    Runs ``FORWARD_CHUNK`` windows at a time. With ``grads``, also adds every
    window's gradient to it, window after window (see :func:`_backward`).
    """
    n = len(batch)
    as2 = np.empty(n)
    mi = np.zeros(n)
    for lo in range(0, n, FORWARD_CHUNK):
        chunk = batch.take(slice(lo, lo + FORWARD_CHUNK))
        fwd = forward(chunk.reps, chunk.costs, params)
        # -log sigmoid(z) for positive candidates, -log(1 - sigmoid(z)) otherwise.
        as2[lo : lo + len(chunk)] = np.logaddexp(0.0, np.where(chunk.y == 1.0, -fwd.logit,
                                                                fwd.logit))
        mi_fwd = None
        if gamma != 0.0:
            mi_fwd = mi_forward(fwd.hs[-1], chunk.pairs, params.disc)
            mi[lo : lo + len(chunk)] = mi_fwd.loss
        if grads is not None:
            _backward(chunk, fwd, mi_fwd, params, 1.0 / n, gamma / n, grads)
    return float(np.mean(as2)), (0.0 if gamma == 0.0 else float(np.mean(mi)))


def joint_loss(batch, params: ModelParams, cfg: TrainConfig) -> float:
    """Mean candidate BCE plus ``gamma`` times the mean regularizer term.

    ``batch`` is a nonempty list of :class:`WindowFeatures` or a :class:`WindowBatch`.
    """
    as2, mi = _mean_terms(_stacked(batch), params, cfg.gamma)
    return as2 if cfg.gamma == 0.0 else as2 + cfg.gamma * mi


def _backward(
    batch: WindowBatch,
    fwd: Forward,
    mi_fwd: MIForward | None,
    params: ModelParams,
    s_as2: float,
    s_mi: float,
    grads: dict[str, np.ndarray],
) -> None:
    """Add the gradient contribution of every window of ``batch`` to ``grads``.

    Each weight gradient is a stack of per-window products, added to the
    running sum in window order (:func:`add_in_order`), so the result is
    bit-equal to accumulating one window at a time.
    """
    def add(name, rows):
        grads[name] = add_in_order(grads[name], rows)

    dh = np.zeros_like(fwd.hs[-1])

    # Scoring head: BCE-through-sigmoid collapses to (sigma(z) - y).
    dlogit = s_as2 * (sigmoid(fwd.logit) - batch.y)
    dz1 = dlogit[:, None] * params.head.w2[0]
    dz1 *= fwd.head_z1 > 0
    dh[:, 0] += (params.head.w1.T @ dz1[:, :, None])[:, :, 0]
    add("head.w2", dlogit[:, None] * fwd.head_a1)
    add("head.w1", dz1[:, :, None] * fwd.hs[-1][:, 0, None, :])
    add("head.b2", dlogit)  # add() overwrites its rows, so these two go last
    add("head.b1", dz1)

    if mi_fwd is not None and s_mi != 0.0:
        mi_backward(mi_fwd, params.disc, s_mi, grads, dh)

    # Graph layers, last to first; edge weights feed every layer.
    alpha_t = fwd.alpha.transpose(0, 2, 1)
    dalpha = np.zeros_like(fwd.alpha)
    for l in range(len(params.gcn) - 1, -1, -1):
        dz = dh * (fwd.pre[l] > 0)
        add(f"gcn.{l}.w", dz.transpose(0, 2, 1) @ fwd.aggregated[l])
        add(f"gcn.{l}.b", dz.sum(axis=1))
        ds = dz @ params.gcn[l].w
        dalpha += ds @ fwd.hs[l].transpose(0, 2, 1)
        dh = alpha_t @ ds

    # Row softmax.
    du = fwd.alpha * (dalpha - np.sum(dalpha * fwd.alpha, axis=2, keepdims=True))

    # Dependency FFN; its inputs are alignment constants, so backprop stops here.
    du9 = du.reshape(-1, 9)
    add("dep.w2", du9[:, None, :] @ fwd.a1_dep)
    add("dep.b2", du9.sum(axis=1))
    dz1_dep = du9[:, :, None] * params.dep.w2[0]
    dz1_dep *= fwd.z1_dep > 0
    add("dep.w1", dz1_dep.transpose(0, 2, 1) @ fwd.x_pairs)
    add("dep.b1", dz1_dep.sum(axis=1))


def loss_and_gradients(batch, params: ModelParams, cfg: TrainConfig
                       ) -> tuple[float, dict[str, np.ndarray]]:
    """Joint loss plus exact reverse-mode derivatives for every tensor.

    ``batch`` is a nonempty list of :class:`WindowFeatures` or a :class:`WindowBatch`.
    """
    batch = _stacked(batch)
    grads = zero_gradients(params)
    as2, mi = _mean_terms(batch, params, cfg.gamma, grads)
    loss = as2 if cfg.gamma == 0.0 else as2 + cfg.gamma * mi
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss} on a batch of {len(batch)} windows")
    return loss, grads


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


def _dev_metrics(instances, feats, params):
    """Mean dev p@1, MAP and MRR over the evaluable questions; ``None`` when there are none."""
    rows = metrics_mod.question_rows(instances,
                                     metrics_mod.rank_features(instances, feats, params))
    if not rows:
        return None, None, None
    report = metrics_mod.mean_report(rows)
    return report.p_at_1, report.map, report.mrr


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
        raise EmptyInputError("training corpus is empty")
    rng = np.random.default_rng(cfg.seed)
    params = init_model_params(rng, store.dim, cfg.hidden_size, cfg.gcn_layers)
    adam = AdamState.zeros(params)
    ft = build_frequency_table(train_corpus)
    settings = cfg.sinkhorn_settings()
    clock = time.perf_counter
    t0 = clock()
    feats = extract_features(instance_windows(train_corpus.instances), store, ft, settings)
    dev_feats = (
        extract_features(instance_windows(dev_corpus.instances), store, ft, settings)
        if dev_corpus else None
    )
    stacked = WindowBatch.stack(feats)
    stage_s = {"align": clock() - t0, "step": 0.0, "adam": 0.0, "dev-eval": 0.0}

    history: list[EpochRecord] = []
    best: Checkpoint | None = None
    best_map = -1.0
    for epoch in range(1, cfg.epochs + 1):
        started = time.monotonic()
        order = rng.permutation(len(feats))
        total = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = stacked.take(order[lo : lo + cfg.batch_size])
            t0 = clock()
            try:
                loss, grads = loss_and_gradients(batch, params, cfg)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"epoch {epoch}, windows {lo}..{lo + len(batch)}: {exc}"
                ) from exc
            t1 = clock()
            adam_step(params, grads, adam, cfg)
            stage_s["step"] += t1 - t0
            stage_s["adam"] += clock() - t1
            total += loss * len(batch)
        train_loss = total / len(feats)
        p1 = ap = rr = None
        if dev_feats is not None:
            t0 = clock()
            p1, ap, rr = _dev_metrics(dev_corpus.instances, dev_feats, params)
            stage_s["dev-eval"] += clock() - t0
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
    logger.info("train stages: " + ", ".join(f"{k} %.3f s" for k in stage_s),
                *stage_s.values())
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


_META_KEYS = ("adam_t", "config", "epoch", "freq_table", "rng_state")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_meta(meta, name: str) -> TrainConfig:
    """Validate the checkpoint's metadata blob; returns its training config.

    Raises :class:`CheckpointError` naming the missing, unknown or bad key.
    """
    if not isinstance(meta, dict):
        raise CheckpointError(f"{name}: checkpoint metadata is not a JSON object")
    missing = [k for k in _META_KEYS if k not in meta]
    if missing:
        raise CheckpointError(f"{name}: checkpoint metadata lacks {missing}")
    for key in ("epoch", "adam_t"):
        if not _is_int(meta[key]) or meta[key] < 0:
            raise CheckpointError(f"{name}: metadata {key!r} must be a nonnegative integer")
    ft = meta["freq_table"]
    if ft is not None and not (isinstance(ft, dict) and isinstance(ft.get("counts"), dict)
                               and _is_int(ft.get("num_questions"))):
        raise CheckpointError(f"{name}: metadata 'freq_table' needs a 'counts' object and an "
                              "integer 'num_questions'")
    config = meta["config"]
    if not isinstance(config, dict):
        raise CheckpointError(f"{name}: metadata 'config' is not a JSON object")
    defaults = {f.name: f.default for f in fields(TrainConfig)}
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise CheckpointError(f"{name}: unknown config keys {unknown}")
    missing = sorted(set(defaults) - set(config))
    if missing:
        raise CheckpointError(f"{name}: config lacks keys {missing}")
    for key, default in defaults.items():
        value = config[key]
        ok = _is_int(value) if _is_int(default) else (
            isinstance(value, (int, float)) and not isinstance(value, bool))
        if not ok:
            raise CheckpointError(f"{name}: config {key!r} has the wrong type: {value!r}")
    try:
        return TrainConfig(**config)
    except ValueError as exc:
        raise CheckpointError(f"{name}: bad config: {exc}") from None


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
    try:
        meta = json.loads(rd.take(meta_len).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path.name}: checkpoint metadata is not JSON: {exc}") from None
    config = _check_meta(meta, path.name)
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
        config=config,
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

    analytic = loss_and_gradients(batch, params, cfg)[1]
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
