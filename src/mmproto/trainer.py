"""Training loop: SGD with momentum, cosine LR decay, prototype freezing.

One optimizer step per batch: embed both modalities, evaluate the swapped
loss, backprop through the tape, update with momentum SGD, and pull the
prototypes back onto the unit sphere. Prototype gradients are zeroed for an
initial freeze window so the codes stabilize before the cluster centers
move. Every piece of run state needed to resume bit-exactly lives in the
checkpoint, including the feature queue and momentum buffers.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import FormatError, PairedCorpus, batches, n_batches
from .model import (Encoder, EncoderConfig, PrototypeBank, embed, init_model,
                    renormalize_prototypes)
from .numerics import GradientTape, backward
from .objective import FeatureQueue, LossConfig, swapped_loss
from .sinkhorn import InputError as SinkhornInputError
from .sinkhorn import SinkhornConfig

CHECKPOINT_MAGIC = b"MMCK"
CHECKPOINT_VERSION = 1


class NumericalAbort(RuntimeError):
    """Loss went non-finite; carries the iteration and batch for diagnosis."""

    def __init__(self, iteration: int, batch_indices, loss_value: float):
        self.iteration = iteration
        self.batch_indices = list(batch_indices)
        self.loss_value = loss_value
        super().__init__(
            f"non-finite loss {loss_value} at iteration {iteration}, "
            f"batch indices {self.batch_indices}")


class VersionError(FormatError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    base_lr: float = 0.5
    momentum: float = 0.9
    prototype_freeze_iterations: int = -1  # -1: one epoch
    loss: LossConfig = field(default_factory=lambda: LossConfig(queue_length=256))
    k_prototypes: int = 16
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.base_lr < 0:
            raise ValueError(f"base_lr must be >= 0, got {self.base_lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")


@dataclass
class MetricsRecord:
    iteration: int
    epoch: int
    loss: float
    lr: float
    code_entropy: float
    queue_fill: int

    def to_dict(self) -> dict:
        return {"iter": self.iteration, "epoch": self.epoch,
                "loss": self.loss, "lr": self.lr,
                "code_entropy": self.code_entropy,
                "queue_fill": self.queue_fill}


@dataclass
class Checkpoint:
    version: int
    config: TrainConfig
    params: dict  # name -> ndarray
    momentum_buffers: dict  # name -> ndarray
    iteration: int
    queue_m1: np.ndarray
    queue_m2: np.ndarray
    queue_fill: int
    queue_cursor: int


# ---- canonical config text ----------------------------------------------

def config_to_text(cfg: TrainConfig) -> str:
    """Flatten to sorted key=value lines; embeddable in checkpoint files."""
    items = {
        "batch_size": cfg.batch_size,
        "base_lr": repr(cfg.base_lr),
        "encoder.d1": cfg.encoder.input_dims[0],
        "encoder.d2": cfg.encoder.input_dims[1],
        "encoder.embed_dim": cfg.encoder.embed_dim,
        "encoder.hidden_dims": ",".join(map(str, cfg.encoder.hidden_dims)),
        "epochs": cfg.epochs,
        "k_prototypes": cfg.k_prototypes,
        "loss.queue_length": cfg.loss.queue_length,
        "loss.queue_start_iteration": cfg.loss.queue_start_iteration,
        "loss.sinkhorn.convergence_tolerance":
            repr(cfg.loss.sinkhorn.convergence_tolerance),
        "loss.sinkhorn.epsilon": repr(cfg.loss.sinkhorn.epsilon),
        "loss.sinkhorn.n_iterations": cfg.loss.sinkhorn.n_iterations,
        "loss.temperature": repr(cfg.loss.temperature),
        "momentum": repr(cfg.momentum),
        "prototype_freeze_iterations": cfg.prototype_freeze_iterations,
        "seed": cfg.seed,
    }
    return "".join(f"{k}={items[k]}\n" for k in sorted(items))


def config_from_text(text: str) -> TrainConfig:
    kv = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        kv[key.strip()] = value.strip()
    return config_from_dict(kv)


def config_from_dict(kv: dict) -> TrainConfig:
    base = TrainConfig()

    def geti(key, default):
        return int(kv[key]) if key in kv else default

    def getf(key, default):
        return float(kv[key]) if key in kv else default

    hidden = kv.get("encoder.hidden_dims")
    hidden_dims = (tuple(int(h) for h in hidden.split(","))
                   if hidden else base.encoder.hidden_dims)
    encoder = EncoderConfig(
        input_dims=(geti("encoder.d1", base.encoder.input_dims[0]),
                    geti("encoder.d2", base.encoder.input_dims[1])),
        hidden_dims=hidden_dims,
        embed_dim=geti("encoder.embed_dim", base.encoder.embed_dim))
    sinkhorn = SinkhornConfig(
        epsilon=getf("loss.sinkhorn.epsilon", base.loss.sinkhorn.epsilon),
        n_iterations=geti("loss.sinkhorn.n_iterations",
                          base.loss.sinkhorn.n_iterations),
        convergence_tolerance=getf(
            "loss.sinkhorn.convergence_tolerance",
            base.loss.sinkhorn.convergence_tolerance))
    loss = LossConfig(
        temperature=getf("loss.temperature", base.loss.temperature),
        sinkhorn=sinkhorn,
        queue_length=geti("loss.queue_length", base.loss.queue_length),
        queue_start_iteration=geti("loss.queue_start_iteration",
                                   base.loss.queue_start_iteration))
    return TrainConfig(
        epochs=geti("epochs", base.epochs),
        batch_size=geti("batch_size", base.batch_size),
        base_lr=getf("base_lr", base.base_lr),
        momentum=getf("momentum", base.momentum),
        prototype_freeze_iterations=geti("prototype_freeze_iterations",
                                         base.prototype_freeze_iterations),
        loss=loss,
        k_prototypes=geti("k_prototypes", base.k_prototypes),
        encoder=encoder,
        seed=geti("seed", base.seed))


# ---- schedule ------------------------------------------------------------

def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Anneal from base_lr at step 0 to base_lr/1000 at the final step."""
    floor = base_lr / 1000.0
    if total_steps <= 1:
        return base_lr
    t = step / (total_steps - 1)
    return floor + 0.5 * (base_lr - floor) * (1.0 + np.cos(np.pi * t))


def epoch_shuffle_seed(seed: int, epoch: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + epoch + 1) & ((1 << 64) - 1)


# ---- training ------------------------------------------------------------

def _resolve(cfg: TrainConfig, steps_per_epoch: int) -> tuple[int, int]:
    freeze = cfg.prototype_freeze_iterations
    if freeze < 0:
        freeze = steps_per_epoch
    queue_start = cfg.loss.queue_start_iteration
    if queue_start < 0:
        queue_start = steps_per_epoch
    return freeze, queue_start


def _build(cfg: TrainConfig) -> tuple[Encoder, PrototypeBank, FeatureQueue]:
    encoder, bank = init_model(cfg.encoder, cfg.k_prototypes, cfg.seed)
    queue = FeatureQueue(cfg.loss.queue_length, cfg.encoder.embed_dim)
    return encoder, bank, queue


def _all_params(encoder: Encoder, bank: PrototypeBank) -> dict:
    params = dict(encoder.parameters())
    params["prototypes"] = bank.c
    return params


def train(corpus: PairedCorpus, config: TrainConfig,
          resume_from: Checkpoint | None = None,
          metrics_sink=None,
          stop_after: int | None = None
          ) -> tuple[Checkpoint, list[MetricsRecord]]:
    """Run (or resume) the optimization; returns the final checkpoint and
    the metrics records produced during this call.

    `stop_after` halts after that many total iterations without altering
    the learning-rate schedule, yielding a mid-run checkpoint that a later
    resumed call continues bit-exactly.
    """
    if corpus.n_samples == 0:
        raise ValueError("corpus is empty")
    steps_per_epoch = n_batches(corpus.n_samples, config.batch_size)
    if steps_per_epoch == 0:
        raise ValueError("batch_size leaves no usable batches")
    total_steps = steps_per_epoch * config.epochs
    stop_at = total_steps if stop_after is None else min(stop_after,
                                                         total_steps)
    freeze_iters, queue_start = _resolve(config, steps_per_epoch)

    encoder, bank, queue = _build(config)
    params = _all_params(encoder, bank)
    velocity = {name: np.zeros_like(p.data) for name, p in params.items()}
    iteration = 0

    if resume_from is not None:
        if resume_from.config != config:
            raise ValueError("resume config differs from checkpoint config")
        for name, p in params.items():
            p.data[...] = resume_from.params[name]
        for name in velocity:
            velocity[name][...] = resume_from.momentum_buffers[name]
        iteration = resume_from.iteration
        queue.buffers[0][...] = resume_from.queue_m1
        queue.buffers[1][...] = resume_from.queue_m2
        queue.fill = resume_from.queue_fill
        queue.cursor = resume_from.queue_cursor

    tape = GradientTape()
    for name, p in params.items():
        tape.watch(name, p)

    metrics: list[MetricsRecord] = []
    ln_k = np.log(config.k_prototypes)

    while iteration < stop_at:
        epoch = iteration // steps_per_epoch
        epoch_batches = batches(corpus, config.batch_size,
                                epoch_shuffle_seed(config.seed, epoch))
        start_in_epoch = iteration - epoch * steps_per_epoch
        remaining = stop_at - iteration
        for batch in epoch_batches[start_in_epoch:start_in_epoch + remaining]:
            lr = cosine_lr(iteration, total_steps, config.base_lr)
            z1 = embed(encoder, batch.x1, 0)
            z2 = embed(encoder, batch.x2, 1)
            try:
                loss_t = swapped_loss(z1, z2, bank, queue, config.loss,
                                      use_queue=iteration >= queue_start)
            except SinkhornInputError:
                # non-finite embeddings or prototypes poison the solver
                raise NumericalAbort(iteration, batch.sample_indices,
                                     float("nan")) from None
            loss_val = float(loss_t.data[0, 0])
            if not np.isfinite(loss_val):
                raise NumericalAbort(iteration, batch.sample_indices, loss_val)

            grads = backward(tape, loss_t)
            frozen = iteration < freeze_iters
            if lr != 0.0:  # zero step size leaves every tensor bit-identical
                for name, p in params.items():
                    if frozen and name == "prototypes":
                        continue
                    v = velocity[name]
                    v *= config.momentum
                    v += grads[name]
                    p.data -= lr * v
                if not frozen:
                    renormalize_prototypes(bank)

            code_ent = _code_usage_entropy(z1.data, z2.data, bank,
                                           config.loss)
            record = MetricsRecord(iteration, epoch, loss_val, lr,
                                   code_ent, queue.fill)
            metrics.append(record)
            if metrics_sink is not None:
                metrics_sink(record)
            iteration += 1

    ckpt = Checkpoint(
        version=CHECKPOINT_VERSION, config=config,
        params={name: p.data.copy() for name, p in params.items()},
        momentum_buffers={name: v.copy() for name, v in velocity.items()},
        iteration=iteration,
        queue_m1=queue.buffers[0].copy(), queue_m2=queue.buffers[1].copy(),
        queue_fill=queue.fill, queue_cursor=queue.cursor)
    return ckpt, metrics


def _code_usage_entropy(z1: np.ndarray, z2: np.ndarray, bank: PrototypeBank,
                        loss_cfg: LossConfig) -> float:
    """Entropy of the batch-mean code distribution over prototypes."""
    from .objective import compute_batch_codes
    q1 = compute_batch_codes(z1, bank, None, loss_cfg.sinkhorn)
    q2 = compute_batch_codes(z2, bank, None, loss_cfg.sinkhorn)
    mean = np.concatenate([q1, q2]).mean(axis=0)
    nz = mean[mean > 0]
    return float(-(nz * np.log(nz)).sum())


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild encoder, prototype bank and queue with checkpoint weights."""
    encoder, bank, queue = _build(ckpt.config)
    for name, p in _all_params(encoder, bank).items():
        p.data[...] = ckpt.params[name]
    queue.buffers[0][...] = ckpt.queue_m1
    queue.buffers[1][...] = ckpt.queue_m2
    queue.fill, queue.cursor = ckpt.queue_fill, ckpt.queue_cursor
    return encoder, bank, queue


def random_init_checkpoint(config: TrainConfig) -> Checkpoint:
    """Checkpoint of a freshly initialized (untrained) model."""
    encoder, bank, queue = _build(config)
    params = _all_params(encoder, bank)
    return Checkpoint(
        version=CHECKPOINT_VERSION, config=config,
        params={name: p.data.copy() for name, p in params.items()},
        momentum_buffers={name: np.zeros_like(p.data)
                          for name, p in params.items()},
        iteration=0,
        queue_m1=queue.buffers[0].copy(), queue_m2=queue.buffers[1].copy(),
        queue_fill=0, queue_cursor=0)


# ---- checkpoint serialization -------------------------------------------

def _tensor_record(name: str, arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    nb = name.encode("utf-8")
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    return (struct.pack("<I", len(nb)) + nb +
            struct.pack("<I", arr.ndim) + dims + arr.tobytes())


def save_checkpoint(ckpt: Checkpoint, path):
    tensors: list[tuple[str, np.ndarray]] = []
    for name in sorted(ckpt.params):
        tensors.append((f"param.{name}", ckpt.params[name]))
    for name in sorted(ckpt.momentum_buffers):
        tensors.append((f"mom.{name}", ckpt.momentum_buffers[name]))
    tensors.append(("queue.m1", ckpt.queue_m1))
    tensors.append(("queue.m2", ckpt.queue_m2))
    state = np.array([float(ckpt.iteration), float(ckpt.queue_fill),
                      float(ckpt.queue_cursor)])
    tensors.append(("state", state))

    cfg_text = config_to_text(ckpt.config).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", ckpt.version))
        f.write(struct.pack("<I", len(cfg_text)))
        f.write(cfg_text)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            f.write(_tensor_record(name, arr))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(
                f"truncated checkpoint: {what} needs {n} bytes at offset "
                f"{offset}, file is {len(blob)} bytes")
        offset += n
        return blob[offset - n:offset]

    def take_u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    magic = take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise VersionError(f"bad checkpoint magic at offset 0: {magic!r}")
    version = take_u32("version")
    if version != CHECKPOINT_VERSION:
        raise VersionError(
            f"unsupported checkpoint version {version} at offset 4")
    cfg_len = take_u32("config length")
    cfg_text = take(cfg_len, "config text")
    try:
        config = config_from_text(cfg_text.decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"bad config text at offset 12: {exc}") from exc
    count = take_u32("tensor count")

    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = take_u32("tensor name length")
        name = take(name_len, "tensor name").decode("utf-8")
        rank = take_u32(f"rank of {name}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name}"))
        size = int(np.prod(dims)) if rank else 1
        tensors[name] = np.frombuffer(
            take(8 * size, f"data of {name}"), dtype="<f8").reshape(dims).copy()
    if offset != len(blob):
        raise FormatError(
            f"{len(blob) - offset} trailing bytes at offset {offset}")

    params = {k[len("param."):]: v for k, v in tensors.items()
              if k.startswith("param.")}
    moms = {k[len("mom."):]: v for k, v in tensors.items()
            if k.startswith("mom.")}
    state = tensors["state"]
    return Checkpoint(
        version=version, config=config, params=params,
        momentum_buffers=moms, iteration=int(state[0]),
        queue_m1=tensors["queue.m1"], queue_m2=tensors["queue.m2"],
        queue_fill=int(state[1]), queue_cursor=int(state[2]))
