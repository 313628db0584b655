"""Training loop: SGD with momentum, cosine LR decay, prototype freezing.

One optimizer step per batch: embed both modalities, evaluate the swapped
loss (with the feature queue's rows once the queue is switched on), push the
batch into the queue, backprop through the tape, update with momentum SGD,
and pull the prototypes back onto the unit sphere. Prototype gradients are
zeroed for an initial freeze window so the codes stabilize before the
cluster centers move. Every piece of run state needed to resume bit-exactly
lives in the checkpoint, including the feature queue and momentum buffers.
"""
from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import PairedCorpus, batches, n_batches
from .errors import FormatError, NumericalAbort, NumericalError, UsageError
from .model import EncoderConfig, embed, init_params, renormalize_prototypes
from .numerics import Tensor, backward
from .objective import FeatureQueue, LossConfig, swapped_loss

CHECKPOINT_MAGIC = b"MMCK"
CHECKPOINT_VERSION = 1


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
            raise UsageError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.base_lr < np.inf:
            raise UsageError(
                f"base_lr must be finite and >= 0, got {self.base_lr}")
        if not 0 <= self.momentum < 1:
            raise UsageError(f"momentum must be in [0,1), got {self.momentum}")


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

#: tuple fields written one element per key, under their historical names
_SPLIT_KEYS = {"encoder.input_dims": ("encoder.d1", "encoder.d2")}


def _leaves(cfg, prefix=""):
    """(dotted key, value) of every field, walking nested configs."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def config_to_text(cfg: TrainConfig) -> str:
    """Flatten to sorted key=value lines; embeddable in checkpoint files."""
    items = {}
    for key, value in _leaves(cfg):
        if key in _SPLIT_KEYS:
            items.update(zip(_SPLIT_KEYS[key], map(str, value)))
        elif isinstance(value, tuple):
            items[key] = ",".join(map(str, value))
        else:
            items[key] = repr(value)
    return "".join(f"{k}={items[k]}\n" for k in sorted(items))


def config_from_text(text: str) -> TrainConfig:
    kv = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        kv[key.strip()] = value.strip()
    return config_from_dict(kv)


def config_from_dict(kv: dict, base: TrainConfig | None = None
                     ) -> TrainConfig:
    """`base` (default `TrainConfig()`) with the string values of `kv`,
    keyed as in `config_to_text`, applied."""
    rest = dict(kv)
    config = _apply(TrainConfig() if base is None else base, rest)
    if rest:
        raise UsageError(f"unknown config key(s): {', '.join(sorted(rest))}")
    return config


def _apply(cfg, kv: dict, prefix=""):
    """Replace each field of `cfg` whose key is in `kv`, popping the key."""
    changes = {}
    for f in dataclasses.fields(cfg):
        key, value = prefix + f.name, getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = _apply(value, kv, key + ".")
        elif key in _SPLIT_KEYS:
            changes[f.name] = tuple(
                _parse(k, kv.pop(k), 0) if k in kv else v
                for k, v in zip(_SPLIT_KEYS[key], value))
        elif key in kv:
            changes[f.name] = _parse(key, kv.pop(key), f.default)
    return dataclasses.replace(cfg, **changes)


def _parse(key: str, text: str, like):
    """`text` as the type of `like`; a tuple means comma-separated ints."""
    try:
        if isinstance(like, tuple):
            return tuple(int(part) for part in text.split(","))
        return type(like)(text)
    except ValueError:
        raise UsageError(f"config key {key}: bad value {text!r}") from None


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


def _build(cfg: TrainConfig) -> tuple[dict, FeatureQueue]:
    """Fresh named parameters and an empty feature queue."""
    params = init_params(cfg.encoder, cfg.k_prototypes, cfg.seed)
    return params, FeatureQueue(cfg.loss.queue_length, cfg.encoder.embed_dim)


def _snapshot(config: TrainConfig, params: dict, velocity: dict,
              iteration: int, queue: FeatureQueue) -> Checkpoint:
    """Copy the run state into a checkpoint."""
    return Checkpoint(
        version=CHECKPOINT_VERSION, config=config,
        params={name: p.data.copy() for name, p in params.items()},
        momentum_buffers={name: v.copy() for name, v in velocity.items()},
        iteration=iteration,
        queue_m1=queue.buffers[0].copy(), queue_m2=queue.buffers[1].copy(),
        queue_fill=queue.fill, queue_cursor=queue.cursor)


def _restore(ckpt: Checkpoint, params: dict, velocity: dict,
             queue: FeatureQueue) -> int:
    """Copy a checkpoint into the run state; returns its iteration."""
    for name, p in params.items():
        p.data[...] = ckpt.params[name]
    for name, v in velocity.items():
        v[...] = ckpt.momentum_buffers[name]
    queue.buffers[0][...] = ckpt.queue_m1
    queue.buffers[1][...] = ckpt.queue_m2
    queue.fill, queue.cursor = ckpt.queue_fill, ckpt.queue_cursor
    return ckpt.iteration


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
        raise UsageError("corpus is empty")
    steps_per_epoch = n_batches(corpus.n_samples, config.batch_size)
    if steps_per_epoch == 0:
        raise UsageError("batch_size leaves no usable batches")
    total_steps = steps_per_epoch * config.epochs
    stop_at = total_steps if stop_after is None else min(stop_after,
                                                         total_steps)
    freeze_iters, queue_start = _resolve(config, steps_per_epoch)

    params, queue = _build(config)
    velocity = {name: np.zeros_like(p.data) for name, p in params.items()}
    iteration = 0
    if resume_from is not None:
        if resume_from.config != config:
            raise UsageError("resume config differs from checkpoint config")
        iteration = _restore(resume_from, params, velocity, queue)

    metrics: list[MetricsRecord] = []

    while iteration < stop_at:
        epoch = iteration // steps_per_epoch
        epoch_batches = batches(corpus, config.batch_size,
                                epoch_shuffle_seed(config.seed, epoch))
        start_in_epoch = iteration - epoch * steps_per_epoch
        remaining = stop_at - iteration
        for batch in epoch_batches[start_in_epoch:start_in_epoch + remaining]:
            lr = cosine_lr(iteration, total_steps, config.base_lr)
            z1 = embed(params, batch.x1, 0)
            z2 = embed(params, batch.x2, 1)
            rows = ((queue.rows(0), queue.rows(1))
                    if iteration >= queue_start and queue.fill else None)
            try:
                loss_t = swapped_loss(z1, z2, params["prototypes"], rows,
                                      config.loss)
            except NumericalError:
                # non-finite embeddings or prototypes poison the solver
                raise NumericalAbort(iteration, batch.sample_indices,
                                     float("nan")) from None
            queue.push(z1.data, z2.data)
            loss_val = float(loss_t.data[0, 0])
            if not np.isfinite(loss_val):
                raise NumericalAbort(iteration, batch.sample_indices, loss_val)

            grads = backward(loss_t, params)
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
                    renormalize_prototypes(params["prototypes"])

            code_ent = _code_usage_entropy(z1.data, z2.data,
                                           params["prototypes"].data,
                                           config.loss)
            record = MetricsRecord(iteration, epoch, loss_val, lr,
                                   code_ent, queue.fill)
            metrics.append(record)
            if metrics_sink is not None:
                metrics_sink(record)
            iteration += 1

    return _snapshot(config, params, velocity, iteration, queue), metrics


def _code_usage_entropy(z1: np.ndarray, z2: np.ndarray,
                        prototypes: np.ndarray, loss_cfg: LossConfig) -> float:
    """Entropy of the batch-mean code distribution over prototypes."""
    from .objective import compute_batch_codes
    q1 = compute_batch_codes(z1, prototypes, None, loss_cfg.sinkhorn)
    q2 = compute_batch_codes(z2, prototypes, None, loss_cfg.sinkhorn)
    mean = np.concatenate([q1, q2]).mean(axis=0)
    nz = mean[mean > 0]
    return float(-(nz * np.log(nz)).sum())


def model_from_checkpoint(ckpt: Checkpoint) -> dict:
    """The named parameters of a checkpoint, as Tensors of their own."""
    return {name: Tensor(value.copy()) for name, value in ckpt.params.items()}


def random_init_checkpoint(config: TrainConfig) -> Checkpoint:
    """Checkpoint of a freshly initialized (untrained) model."""
    params, queue = _build(config)
    velocity = {name: np.zeros_like(p.data) for name, p in params.items()}
    return _snapshot(config, params, velocity, 0, queue)


# ---- checkpoint serialization -------------------------------------------

def _tensor_record(name: str, arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    nb = name.encode("utf-8")
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    return (struct.pack("<I", len(nb)) + nb +
            struct.pack("<I", arr.ndim) + dims + arr.tobytes())


def _tensors(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    """The named arrays of a checkpoint, in file order."""
    tensors = [(f"param.{n}", ckpt.params[n]) for n in sorted(ckpt.params)]
    tensors += [(f"mom.{n}", ckpt.momentum_buffers[n])
                for n in sorted(ckpt.momentum_buffers)]
    state = np.array([float(ckpt.iteration), float(ckpt.queue_fill),
                      float(ckpt.queue_cursor)])
    return tensors + [("queue.m1", ckpt.queue_m1), ("queue.m2", ckpt.queue_m2),
                      ("state", state)]


def save_checkpoint(ckpt: Checkpoint, path):
    tensors = _tensors(ckpt)
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
    """Read a checkpoint; any malformed byte is a `FormatError` naming its
    offset or tensor. Tensor names and shapes must be those of the model
    that the embedded config builds, and every value must be finite."""
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
        raise FormatError(f"bad checkpoint magic at offset 0: {magic!r}")
    version = take_u32("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(
            f"unsupported checkpoint version {version} at offset 4")
    cfg_len = take_u32("config length")
    cfg_text = take(cfg_len, "config text")
    try:
        config = config_from_text(cfg_text.decode("utf-8"))
        shapes = {name: arr.shape for name, arr
                  in _tensors(random_init_checkpoint(config))}
    except (UnicodeDecodeError, UsageError) as exc:
        raise FormatError(f"bad config text at offset 12: {exc}") from None
    count = take_u32("tensor count")

    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = take_u32("tensor name length")
        at = offset
        try:
            name = take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(
                f"tensor name at offset {at} is not UTF-8") from None
        if name not in shapes or name in tensors:
            raise FormatError(f"unexpected tensor {name!r} at offset {at}")
        rank = take_u32(f"rank of {name}")
        if rank > 2:
            raise FormatError(
                f"rank {rank} of {name} at offset {offset - 4} exceeds 2")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name}"))
        if dims != shapes[name]:
            raise FormatError(f"tensor {name} has shape {dims}, its config "
                              f"builds {shapes[name]}")
        tensors[name] = np.frombuffer(
            take(8 * math.prod(dims), f"data of {name}"),
            dtype="<f8").reshape(dims).copy()
        if not np.isfinite(tensors[name]).all():
            raise FormatError(f"tensor {name} at offset {at} holds NaN or Inf")
    if offset != len(blob):
        raise FormatError(
            f"{len(blob) - offset} trailing bytes at offset {offset}")
    missing = shapes.keys() - tensors.keys()
    if missing:
        raise FormatError(f"missing tensors: {', '.join(sorted(missing))}")

    iteration, fill, cursor = tensors["state"]
    if not (all(x >= 0 and float(x).is_integer() for x in tensors["state"])
            and fill <= config.loss.queue_length
            and cursor < max(config.loss.queue_length, 1)):
        raise FormatError(f"tensor state holds no valid run state: "
                          f"{tensors['state'].tolist()}")
    params = {k[len("param."):]: v for k, v in tensors.items()
              if k.startswith("param.")}
    moms = {k[len("mom."):]: v for k, v in tensors.items()
            if k.startswith("mom.")}
    return Checkpoint(
        version=version, config=config, params=params,
        momentum_buffers=moms, iteration=int(iteration),
        queue_m1=tensors["queue.m1"], queue_m2=tensors["queue.m2"],
        queue_fill=int(fill), queue_cursor=int(cursor))
