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

import json
import logging
import math
import mmap
import reprlib
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
    FeatureSet,
    Forward,
    ModelParams,
    extract_features,
    forward,
    init_model_params,
    instance_windows,
    param_tensors,
    scorer_size,
    sigmoid,
)
from .mutual_info import MIForward, WindowPairs, mi_backward, mi_forward
from .sinkhorn import SinkhornSettings

logger = logging.getLogger(__name__)

CKPT_MAGIC = b"OTCK"
CKPT_VERSION = 4
_CKPT_HEADER = struct.Struct("<4sIIQ")  # magic, version, d, metadata length
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and epsilon


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 64
    gamma: float = 0.3
    epochs: int = 10
    seed: int = 0
    hidden_size: int = 400
    gcn_layers: int = 2
    sinkhorn_eps_scale: float = SinkhornSettings.eps_scale

    def __post_init__(self):
        # JSON configs and checkpoint metadata can spell any type, Infinity and NaN.
        for f in fields(self):
            value = getattr(self, f.name)
            if _is_int(f.default) and not _is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        for name in ("learning_rate", "sinkhorn_eps_scale"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be nonnegative and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be at least 1")
        if self.gcn_layers < 1:
            raise ValueError("gcn_layers must be at least 1")

    def sinkhorn_settings(self) -> SinkhornSettings:
        """The solver's settings: this eps scale, the library's iteration budget and tolerance."""
        return SinkhornSettings(eps_scale=self.sinkhorn_eps_scale)


def config_from_dict(config: dict, complete: bool = False) -> TrainConfig:
    """The :class:`TrainConfig` of a config file's or checkpoint's settings.

    Raises ``ValueError`` naming the keys that are not settings, then, with
    ``complete`` (a checkpoint records every setting), the settings it lacks,
    then a bad value.
    """
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    missing = sorted(known - set(config))
    if complete and missing:
        raise ValueError(f"config lacks keys {missing}")
    try:
        return TrainConfig(**config)
    except ValueError as exc:
        raise ValueError(f"bad training configuration: {exc}") from None


def _mean_terms(feats: FeatureSet, params: ModelParams, gamma: float,
                grads: dict[str, np.ndarray] | None = None) -> tuple[float, float]:
    """Mean candidate BCE and mean regularizer term over the windows of ``feats``.

    Runs ``FORWARD_CHUNK`` windows at a time. With ``grads``, also adds the
    gradient of each chunk to it (see :func:`_backward`).
    """
    n = len(feats)
    if n == 0:
        raise ValueError("batch must be nonempty")
    as2 = np.empty(n)
    mi = np.zeros(n)
    for lo in range(0, n, FORWARD_CHUNK):
        chunk = feats.take(slice(lo, lo + FORWARD_CHUNK))
        y = chunk.labels[:, 0].astype(np.float64)
        fwd = forward(chunk.reps, chunk.costs, params)
        # -log sigmoid(z) for positive candidates, -log(1 - sigmoid(z)) otherwise.
        as2[lo : lo + len(chunk)] = np.logaddexp(
            0.0, np.where(chunk.labels[:, 0], -fwd.logit, fwd.logit))
        mi_fwd = None
        if gamma != 0.0:
            mi_fwd = mi_forward(fwd.hs[-1], WindowPairs.of_labels(chunk.labels), params.disc)
            mi[lo : lo + len(chunk)] = mi_fwd.loss
        if grads is not None:
            _backward(y, fwd, mi_fwd, params, 1.0 / n, gamma / n, grads)
    return float(np.mean(as2)), (0.0 if gamma == 0.0 else float(np.mean(mi)))


def joint_loss(feats: FeatureSet, params: ModelParams, cfg: TrainConfig) -> float:
    """Mean candidate BCE plus ``gamma`` times the mean regularizer term, over a
    nonempty :class:`FeatureSet`."""
    as2, mi = _mean_terms(feats, params, cfg.gamma)
    return as2 + cfg.gamma * mi


def _backward(
    y: np.ndarray,
    fwd: Forward,
    mi_fwd: MIForward | None,
    params: ModelParams,
    s_as2: float,
    s_mi: float,
    grads: dict[str, np.ndarray],
) -> None:
    """Add the gradient contribution of every window of ``fwd`` to ``grads``;
    ``y`` holds the candidate labels as 1.0 / 0.0.

    Each weight gradient is one flat GEMM over the chunk's rows, for example
    ``(B*9, hidden).T @ (B*9, d+2)`` for dependency layer 1, and each bias
    gradient one sum; both are added to ``grads``. Against accumulating one
    window at a time, the summation order differs, so the gradients agree to
    rounding, not bit for bit. The sweep overwrites ``fwd.a1_dep`` once it
    has read it.
    """
    b, _, d = fwd.hs[-1].shape
    hidden = fwd.head_a1.shape[1]
    dh = np.zeros((b, 3, d))

    # Scoring head: BCE-through-sigmoid collapses to (sigma(z) - y).
    dlogit = s_as2 * (sigmoid(fwd.logit) - y)
    dz1 = dlogit[:, None] * params.head.w2[0]
    dz1 *= fwd.head_a1 > 0.0  # ReLU: where the pre-activation was positive
    dh[:, 0] += dz1 @ params.head.w1
    grads["head.w2"] += dlogit[None] @ fwd.head_a1
    grads["head.w1"] += dz1.T @ fwd.hs[-1][:, 0]
    grads["head.b2"] += dlogit.sum()
    grads["head.b1"] += dz1.sum(axis=0)

    if mi_fwd is not None and s_mi != 0.0:
        mi_backward(mi_fwd, params.disc, s_mi, grads, dh)

    # Graph layers, last to first; edge weights feed every layer.
    alpha_t = fwd.alpha.transpose(0, 2, 1)
    dalpha = np.zeros_like(fwd.alpha)
    for l in range(len(params.gcn) - 1, -1, -1):
        dz_rows = (dh * (fwd.hs[l + 1] > 0.0)).reshape(b * 3, d)
        grads[f"gcn.{l}.w"] += dz_rows.T @ fwd.aggregated[l].reshape(b * 3, d)
        grads[f"gcn.{l}.b"] += dz_rows.sum(axis=0)
        ds = (dz_rows @ params.gcn[l].w).reshape(b, 3, d)
        dalpha += ds @ fwd.hs[l].transpose(0, 2, 1)
        dh = alpha_t @ ds

    # Row softmax.
    du = fwd.alpha * (dalpha - np.sum(dalpha * fwd.alpha, axis=2, keepdims=True))

    # Dependency FFN; its inputs are alignment constants, so backprop stops here.
    du_row = du.reshape(1, b * 9)
    a1_rows = fwd.a1_dep.reshape(b * 9, hidden)
    grads["dep.w2"] += du_row @ a1_rows
    grads["dep.b2"] += du_row.sum()
    mask = a1_rows > 0.0
    # a1_dep is read no more, so its buffer takes the gradient. In the benchmark's
    # train command (d=16, hidden 400) a fresh (B*9, hidden) array here took a step
    # from about 3.0 to 5.2 ms of CPU time, with about 700 more page faults per step
    # (2-vCPU x86_64, one BLAS thread).
    dz1_dep = np.multiply(du_row.T, params.dep.w2[0], out=a1_rows)
    dz1_dep *= mask
    grads["dep.w1"] += dz1_dep.T @ fwd.x_pairs.reshape(b * 9, d + 2)
    grads["dep.b1"] += dz1_dep.sum(axis=0)


def loss_and_gradients(feats: FeatureSet, params: ModelParams,
                       cfg: TrainConfig) -> tuple[float, np.ndarray]:
    """Joint loss over a nonempty :class:`FeatureSet`, plus exact reverse-mode
    derivatives as one fresh flat buffer in the layout of ``params.flat``."""
    grads = np.zeros_like(params.flat)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
        as2, mi = _mean_terms(feats, params, cfg.gamma, param_tensors(params.like(grads)))
        loss = as2 + cfg.gamma * mi
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss} on a batch of {len(feats)} windows")
    return loss, grads


@dataclass
class AdamState:
    """Adam's step count and moments, each moment a flat buffer in the parameter layout."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), t=0)


def adam_step(
    params: ModelParams,
    grads: np.ndarray,
    state: AdamState,
    cfg: TrainConfig,
) -> AdamState:
    """One bias-corrected Adam update of ``params.flat`` and the moments, in place,
    from a flat gradient of the same layout: one elementwise pass, in which each
    entry goes through the operations of an update tensor by tensor, in order."""
    if grads.shape != params.flat.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.flat.shape}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grads * grads)
    params.flat -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return state


@dataclass
class Checkpoint:
    params: ModelParams
    config: TrainConfig
    epoch: int
    freq_table: FrequencyTable


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


def _snapshot(params, cfg, epoch, ft) -> Checkpoint:
    # A fresh buffer with views of its own: training goes on updating the live one.
    return Checkpoint(params=params.like(params.flat.copy()), config=cfg, epoch=epoch,
                      freq_table=ft)


def _dev_metrics(instances, feats, params):
    """Mean dev p@1, MAP and MRR over the evaluable questions; ``None`` when there are none."""
    rows = metrics_mod.question_rows(instances, metrics_mod.rank_features(instances, feats, params))
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
    alongside the final one. A non-finite loss of a batch before its step, of an
    epoch's mean, or of the last batch after the last step raises ``FloatingPointError``.
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
    stage_s = {"align": clock() - t0, "step": 0.0, "adam": 0.0, "dev-eval": 0.0}

    history: list[EpochRecord] = []
    best: Checkpoint | None = None
    best_map = -1.0
    # Divergence overflows first; the loop's finiteness checks then raise FloatingPointError.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            started = time.monotonic()
            order = rng.permutation(len(feats))
            total = 0.0
            for lo in range(0, len(order), cfg.batch_size):
                batch = feats.take(order[lo : lo + cfg.batch_size])
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
            # Each loss above precedes its step, so the last step is checked on its own.
            if epoch == cfg.epochs and not math.isfinite(joint_loss(batch, params, cfg)):
                raise FloatingPointError(f"epoch {epoch}, windows {lo}..{lo + len(batch)}: "
                                         "non-finite loss after the last step")
            train_loss = total / len(feats)
            if not math.isfinite(train_loss):
                raise FloatingPointError(f"epoch {epoch}: non-finite mean loss {train_loss}")
            p1 = ap = rr = None
            if dev_feats is not None:
                t0 = clock()
                p1, ap, rr = _dev_metrics(dev_corpus.instances, dev_feats, params)
                stage_s["dev-eval"] += clock() - t0
                if ap is not None and ap > best_map:
                    best_map = ap
                    best = _snapshot(params, cfg, epoch, ft)
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
    final = _snapshot(params, cfg, cfg.epochs, ft)
    return TrainResult(final=final, best=best if best is not None else final, history=history)


# ---------------------------------------------------------------------------
# Checkpoint file format 4: magic OTCK, version, d, a JSON metadata blob (config,
# epoch, frequency table), the scorer's parameters as one run of scorer_size(d,
# hidden_size, gcn_layers) floats, sized by the config (the leading run of
# ModelParams.flat, in declaration order, without the MI discriminator), then a
# trailing CRC32 of everything before it. Little endian; floats are float64.
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Write ``ckpt``; a config that does not size its parameters raises ValueError first."""
    params, cfg = ckpt.params, ckpt.config
    if (cfg.hidden_size, cfg.gcn_layers) != (params.hidden, params.layers):
        raise ValueError(f"config hidden_size={cfg.hidden_size}, gcn_layers={cfg.gcn_layers} "
                         f"!= parameter sizes hidden={params.hidden}, layers={params.layers}")
    meta = {
        "config": asdict(cfg),
        "epoch": ckpt.epoch,
        "freq_table": {
            "counts": ckpt.freq_table.counts,
            "num_questions": ckpt.freq_table.num_questions,
        },
    }
    meta_raw = json.dumps(meta, sort_keys=True, separators=(",", ":"),
                          allow_nan=False).encode("utf-8")
    body = [
        _CKPT_HEADER.pack(CKPT_MAGIC, CKPT_VERSION, params.dim, len(meta_raw)),
        meta_raw,
        np.asarray(params.flat[:scorer_size(params.dim, params.hidden, params.layers)],
                   "<f8").tobytes(),
    ]
    payload = b"".join(body)
    Path(path).write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


_META_KEYS = ("config", "epoch", "freq_table")


def _check_meta(meta, name: str) -> TrainConfig:
    """Validate the checkpoint's metadata blob; returns its config, which sizes the run.

    Raises :class:`CheckpointError` naming the missing, unknown or bad key.
    """
    if not isinstance(meta, dict):
        raise CheckpointError(f"{name}: checkpoint metadata is not a JSON object")
    missing = [k for k in _META_KEYS if k not in meta]
    if missing:
        raise CheckpointError(f"{name}: checkpoint metadata lacks {missing}")
    if not _is_int(meta["epoch"]) or meta["epoch"] < 0:
        raise CheckpointError(f"{name}: metadata 'epoch' must be a nonnegative integer")
    ft = meta["freq_table"]
    if ft is None:
        raise CheckpointError(f"{name}: metadata 'freq_table' is null: the checkpoint carries "
                              "no frequency table, so it cannot align")
    if not (isinstance(ft, dict) and isinstance(ft.get("counts"), dict)
            and _is_int(ft.get("num_questions"))):
        raise CheckpointError(f"{name}: metadata 'freq_table' needs a 'counts' object and "
                              "an integer 'num_questions'")
    total = ft["num_questions"]
    # Counts become float64 marginal weights, which hold every integer below 2**53.
    if not 0 <= total < 2**53:
        raise CheckpointError(f"{name}: metadata 'freq_table' 'num_questions' must lie in "
                              f"[0, 2**53), got {reprlib.repr(total)}")
    for word, count in ft["counts"].items():
        if not (_is_int(count) and 0 <= count <= total):
            raise CheckpointError(
                f"{name}: metadata 'freq_table' count of {word!r} must be an integer in "
                f"[0, num_questions = {total}], got {reprlib.repr(count)}")
    config = meta["config"]
    if not isinstance(config, dict):
        raise CheckpointError(f"{name}: metadata 'config' is not a JSON object")
    try:
        return config_from_dict(config, complete=True)
    except ValueError as exc:
        raise CheckpointError(f"{name}: {exc}") from None


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Checks the magic, the CRC, the version, ``d`` and the metadata; the
    config's sizes then fix the parameter run, which must be the bytes left,
    before any array is built. The file is mapped read-only while it loads,
    and the run is copied out into the head of a fresh, writable, zeroed flat
    buffer in the layout of :class:`~otrank.model.ModelParams`. Nothing
    returned refers to the mapping, which is closed before this returns.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != CKPT_MAGIC:  # also a file too short to map
            raise CheckpointError(f"{path.name}: bad magic, not a checkpoint")
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as raw:
            payload = len(raw) - 4
            (crc,) = struct.unpack_from("<I", raw, payload)
            with memoryview(raw) as view:
                intact = zlib.crc32(view[:payload]) & 0xFFFFFFFF == crc
            if not intact:
                raise CheckpointError(f"{path.name}: CRC mismatch, file is corrupt")
            if payload < _CKPT_HEADER.size:
                raise CheckpointError(f"{path.name}: truncated file")
            _, version, dim, meta_len = _CKPT_HEADER.unpack_from(raw)
            if version != CKPT_VERSION:
                raise CheckpointError(f"{path.name}: unsupported checkpoint version {version}")
            if dim < 1:
                raise CheckpointError(f"{path.name}: header d must be at least 1, got d={dim}")
            run = _CKPT_HEADER.size + meta_len  # the metadata ends here
            if run > payload:
                raise CheckpointError(f"{path.name}: truncated file")
            try:
                meta = json.loads(str(raw[_CKPT_HEADER.size:run], "utf-8"))
            except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
                raise CheckpointError(f"{path.name}: checkpoint metadata is not JSON: "
                                      f"{exc}") from None
            config = _check_meta(meta, path.name)
            hidden, layers = config.hidden_size, config.gcn_layers
            n, left = scorer_size(dim, hidden, layers), payload - run
            if left != 8 * n:
                raise CheckpointError(f"{path.name}: sizes d={dim}, hidden_size={hidden}, "
                                      f"gcn_layers={layers} need {8 * n} parameter bytes, "
                                      f"the file holds {left}")
            params = ModelParams.zeros(dim, hidden, layers)
            params.flat[:n] = np.frombuffer(raw, "<f8", n, run)
    ft = FrequencyTable(counts=meta["freq_table"]["counts"],
                        num_questions=meta["freq_table"]["num_questions"])
    return Checkpoint(params=params, config=config, epoch=meta["epoch"], freq_table=ft)


# The gradient audit's micro-model (d, hidden size, graph layers), its central
# difference step and the largest relative error that passes.
GRADCHECK_DIM, GRADCHECK_HIDDEN, GRADCHECK_LAYERS = 6, 8, 2
GRADCHECK_STEP = 1e-4
GRADCHECK_THRESHOLD = 1e-4


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


def gradcheck(seed: int = 0) -> GradcheckReport:
    """Compare analytic gradients against central finite differences.

    Builds a random micro-model and batch from ``seed``, with the default
    ``gamma``, then perturbs every parameter entry by ``+-GRADCHECK_STEP``.
    The relative error divides by ``max(|analytic|, |numeric|, 1e-3)`` so
    near-zero entries are judged on an absolute scale.
    """
    rng = np.random.default_rng(seed)
    params = init_model_params(rng, GRADCHECK_DIM, GRADCHECK_HIDDEN, GRADCHECK_LAYERS)
    params.flat[...] = rng.uniform(-0.5, 0.5, size=params.flat.shape)

    labels = np.array([[True, True, False], [False, True, False], [True, False, False]])
    draws = [(rng.normal(size=(3, GRADCHECK_DIM)), rng.uniform(0.5, 2.0, size=3))
             for _ in labels]
    batch = FeatureSet(reps=np.stack([r for r, _ in draws]),
                       costs=np.stack([c for _, c in draws]), labels=labels)
    cfg = TrainConfig(hidden_size=GRADCHECK_HIDDEN, gcn_layers=GRADCHECK_LAYERS)

    analytic = param_tensors(params.like(loss_and_gradients(batch, params, cfg)[1]))
    report: dict[str, float] = {}
    for name, theta in param_tensors(params).items():
        worst = 0.0
        flat = theta.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + GRADCHECK_STEP
            up = joint_loss(batch, params, cfg)
            flat[k] = orig - GRADCHECK_STEP
            down = joint_loss(batch, params, cfg)
            flat[k] = orig
            numeric = (up - down) / (2.0 * GRADCHECK_STEP)
            a = a_flat[k]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-3))
        report[name] = float(worst)
    return GradcheckReport(per_tensor=report, step=GRADCHECK_STEP, threshold=GRADCHECK_THRESHOLD)
