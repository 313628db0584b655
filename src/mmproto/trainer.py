"""Training loop: SGD with momentum, cosine LR decay, prototype freezing.

One optimizer step per batch: embed both modalities, evaluate the swapped
loss (with the feature queue's rows once the queue is switched on), push the
batch into the queue, backprop through the tape, update with momentum SGD,
and pull the prototypes back onto the unit sphere. For an initial freeze
window the update skips the prototypes, leaving them and their momentum
buffer as they are, so the codes stabilize before the cluster centers
move. Each converged code solve starts from the latest prototype potentials
of its modality, zeros until the run's first solve: once the queue feeds
the codes, consecutive problems share all but one batch of their columns.
The checkpoint is the run state: `train` advances a copy of it in place, so
the parameters, momentum buffers, feature queue and potentials that a
bit-exact resume needs are the ones the file holds.
"""
from __future__ import annotations

import copy
import dataclasses
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import PairedCorpus, Reader, batches, check_seed, n_batches
from .errors import FormatError, NumericalAbort, NumericalError, UsageError
from .model import (EncoderConfig, check_width, embed, init_params, layers,
                    renormalize_prototypes)
from .numerics import Tensor, backward
from .objective import FeatureQueue, LossConfig, swapped_loss

CHECKPOINT_MAGIC = b"MMCK"
CHECKPOINT_VERSION = 7


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    base_lr: float = 0.5
    momentum: float = 0.9
    prototype_freeze_iterations: int = -1  # -1: one epoch
    loss: LossConfig = field(default_factory=LossConfig)
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
        if self.prototype_freeze_iterations < -1:
            raise UsageError(f"prototype_freeze_iterations must be >= -1 "
                             f"(-1: one epoch), got "
                             f"{self.prototype_freeze_iterations}")
        check_seed("seed", self.seed)


@dataclass
class MetricsRecord:
    iteration: int
    epoch: int
    loss: float
    lr: float
    code_entropy: float
    queue_fill: int


@dataclass
class Checkpoint:
    """The run state: `train` advances one of these in place."""
    config: TrainConfig
    params: dict  # name -> ndarray
    momentum_buffers: dict  # name -> ndarray
    queue: FeatureQueue
    iteration: int
    potentials: tuple[np.ndarray, np.ndarray]  # per modality; zeros: none yet
    n_samples: int = 0  # of the corpus the run trains on; 0: not yet trained


# ---- canonical config text ----------------------------------------------

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
        if isinstance(value, tuple):
            items[key] = ",".join(map(str, value))
        else:
            items[key] = repr(value)
    return "".join(f"{k}={items[k]}\n" for k in sorted(items))


def config_from_text(text: str) -> TrainConfig:
    return config_from_dict(config_entries(text))


def config_entries(text: str) -> dict:
    """The key=value lines of a config text, as strings by key; each key
    may appear once."""
    kv = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not key=value: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise UsageError(f"config line {lineno} repeats key {key}")
        kv[key] = value
    return kv


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

    Non-finite numbers in a step's codes or loss, or in any tensor of the
    checkpoint after the last step this call runs, are a `NumericalAbort`
    naming the step and its batch.
    """
    if corpus.n_samples == 0:
        raise UsageError("corpus is empty")
    for m, x in enumerate((corpus.modality1, corpus.modality2)):
        check_width(m, config.encoder.input_dims[m], x.shape[1])
    if stop_after is not None and stop_after < 0:
        raise UsageError(f"stop_after must be >= 0, got {stop_after}")
    steps_per_epoch = n_batches(corpus.n_samples, config.batch_size)
    if steps_per_epoch == 0:
        raise UsageError(f"a corpus of {corpus.n_samples} sample leaves "
                         f"only a trailing batch of 1, which training drops")
    total_steps = steps_per_epoch * config.epochs
    stop_at = total_steps if stop_after is None else min(stop_after,
                                                         total_steps)
    freeze_iters, queue_start = (  # -1: one epoch
        steps_per_epoch if n < 0 else n
        for n in (config.prototype_freeze_iterations,
                  config.loss.queue_start_iteration))

    if resume_from is None:
        ckpt = random_init_checkpoint(config)
    else:
        if resume_from.config != config:
            raise UsageError("resume config differs from checkpoint config")
        if resume_from.n_samples not in (0, corpus.n_samples):  # 0: untrained
            raise UsageError(f"the checkpoint's run trains on "
                             f"{resume_from.n_samples} samples, the corpus "
                             f"has {corpus.n_samples}")
        if stop_after is not None and stop_after < resume_from.iteration:
            raise UsageError(f"stop_after {stop_after} is below the resumed "
                             f"iteration {resume_from.iteration}")
        ckpt = copy.deepcopy(resume_from)
    ckpt.n_samples = corpus.n_samples
    params = {name: Tensor(value) for name, value in ckpt.params.items()}
    # the arrays that the updates write, also where Tensor converted one
    ckpt.params = {name: p.data for name, p in params.items()}
    velocity, queue = ckpt.momentum_buffers, ckpt.queue

    metrics: list[MetricsRecord] = []

    for iteration in range(ckpt.iteration, stop_at):
        epoch, index = divmod(iteration, steps_per_epoch)
        if index == 0 or not metrics:  # once per epoch that this call runs
            epoch_batches = batches(corpus, config.batch_size,
                                    epoch_shuffle_seed(config.seed, epoch))
        batch = epoch_batches[index]
        lr = cosine_lr(iteration, total_steps, config.base_lr)
        z1 = embed(params, batch.x1, 0)
        z2 = embed(params, batch.x2, 1)
        rows = ((queue.rows(0), queue.rows(1))
                if iteration >= queue_start and queue.fill else None)
        try:
            loss_t, solved = swapped_loss(z1, z2, params["prototypes"], rows,
                                          config.loss, start=ckpt.potentials)
            queue.push(z1.data, z2.data)
            if solved is not None:  # None: fixed sweeps or a closed form
                ckpt.potentials = solved
            loss_val = float(loss_t.data[0, 0])
            if not np.isfinite(loss_val):
                raise NumericalError(f"non-finite loss {loss_val}")

            grads = backward(loss_t, params)
            frozen = iteration < freeze_iters
            if lr != 0.0:  # zero step size leaves every tensor bit-identical
                # an update that overflows shows in the metric's scores
                # below, in the next step's, or, at the last step, in the
                # finiteness check of the tensors that the run returns
                with np.errstate(over="ignore", invalid="ignore"):
                    for name, p in params.items():
                        if frozen and name == "prototypes":
                            continue
                        v = velocity[name]
                        v *= config.momentum
                        v += grads[name]
                        p.data -= lr * v
                    if not frozen:
                        renormalize_prototypes(params["prototypes"])
            if iteration == stop_at - 1:
                _check_finite(_tensors(ckpt))

            code_ent = _code_usage_entropy(z1.data, z2.data,
                                           params["prototypes"].data,
                                           config.loss, ckpt.potentials)
        except NumericalError as exc:
            raise NumericalAbort(iteration, batch.sample_indices,
                                 str(exc)) from None
        record = MetricsRecord(iteration, epoch, loss_val, lr,
                               code_ent, queue.fill)
        metrics.append(record)
        if metrics_sink is not None:
            metrics_sink(record)
        ckpt.iteration = iteration + 1

    return ckpt, metrics


def _code_usage_entropy(z1: np.ndarray, z2: np.ndarray,
                        prototypes: np.ndarray, loss_cfg: LossConfig,
                        start: tuple[np.ndarray, np.ndarray]) -> float:
    """Entropy of the batch-mean code distribution over prototypes, each
    modality's solve started from its potentials in `start`."""
    from .objective import compute_batch_codes
    q1, _ = compute_batch_codes(z1, prototypes, None, loss_cfg.sinkhorn,
                                start[0])
    q2, _ = compute_batch_codes(z2, prototypes, None, loss_cfg.sinkhorn,
                                start[1])
    mean = np.concatenate([q1, q2]).mean(axis=0)
    nz = mean[mean > 0]
    return float(-(nz * np.log(nz)).sum())


def model_from_checkpoint(ckpt: Checkpoint) -> dict:
    """The named parameters of a checkpoint, as Tensors of their own."""
    return {name: Tensor(value.copy()) for name, value in ckpt.params.items()}


def random_init_checkpoint(config: TrainConfig) -> Checkpoint:
    """Checkpoint of a freshly initialized (untrained) model."""
    params = {name: p.data for name, p in
              init_params(config.encoder, config.k_prototypes,
                          config.seed).items()}
    return Checkpoint(
        config, params, {name: np.zeros_like(p) for name, p in params.items()},
        FeatureQueue(config.loss.queue_length, config.encoder.embed_dim),
        iteration=0, potentials=tuple(np.zeros((2, config.k_prototypes))))


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
    tensors += zip(("queue.m1", "queue.m2"), ckpt.queue.buffers)
    tensors += zip(("potentials.m1", "potentials.m2"), ckpt.potentials)
    state = np.array([float(ckpt.iteration), float(ckpt.queue.fill),
                      float(ckpt.n_samples)])
    return tensors + [("state", state)]


def _check_finite(tensors):
    """A named array holding NaN or Inf is a `NumericalError` naming it."""
    for name, arr in tensors:
        if not np.isfinite(arr).all():
            raise NumericalError(f"tensor {name} holds NaN or Inf")


def save_checkpoint(ckpt: Checkpoint, path):
    """Write `ckpt`; a tensor holding NaN or Inf, which `load_checkpoint`
    would refuse, is a `NumericalError`, and no file is opened."""
    tensors = _tensors(ckpt)
    _check_finite(tensors)
    cfg_text = config_to_text(ckpt.config).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(cfg_text)))
        f.write(cfg_text)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            f.write(_tensor_record(name, arr))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed byte is a `FormatError` naming its
    offset and tensor, or the tensor count. The records must be the ones
    that `save_checkpoint` writes for the model that the embedded config
    builds, in its order, and every value must be finite."""
    reader = Reader(path, "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    cfg_text = reader.bytes(reader.u32("config length"), "config text")
    try:
        config = config_from_text(cfg_text.decode("utf-8"))
        # a config can describe more data than any file holds: look for 8
        # bytes per element of the parameters, momentum, queues, potentials
        # and state
        d = config.encoder.embed_dim
        n_params = config.k_prototypes * d + sum(
            (fan_in + 1) * fan_out
            for _, fan_in, fan_out in layers(config.encoder))
        reader.expect(8 * (2 * n_params + 2 * config.loss.queue_length * d
                           + 2 * config.k_prototypes + 3), "tensor data")
        ckpt = random_init_checkpoint(config)
    except (UnicodeDecodeError, UsageError) as exc:
        raise FormatError(f"bad config text at offset 12: {exc}") from None
    tensors = _tensors(ckpt)
    count = reader.u32("tensor count")
    if count != len(tensors):
        raise FormatError(f"tensor count {count} at offset {reader.offset - 4}"
                          f" is not {len(tensors)}")
    # each record is read into the array that save_checkpoint writes it from
    for name, slot in tensors:
        at = reader.offset
        got = reader.bytes(reader.u32(f"name length of {name}"),
                           f"name of {name}")
        rank = reader.u32(f"rank of {name}")
        dims = tuple(reader.array("<u4", (rank,), f"shape of {name}").tolist())
        if (got, dims) != (name.encode("utf-8"), slot.shape):
            raise FormatError(f"tensor {name} of shape {slot.shape} expected "
                              f"at offset {at}, found {got!r} of shape {dims}")
        slot[...] = reader.array("<f8", dims, f"data of {name}")
        if not np.isfinite(slot).all():
            raise FormatError(f"tensor {name} at offset {at} holds NaN or Inf")
    reader.end()

    state = tensors[-1][1]  # _tensors ends with the run state
    if not (all(x >= 0 and float(x).is_integer() for x in state)
            and state[1] <= ckpt.queue.capacity):  # [1]: the queue fill
        raise FormatError(
            f"tensor state holds no valid run state: {state.tolist()}")
    ckpt.iteration, ckpt.queue.fill, ckpt.n_samples = map(int, state)
    return ckpt
