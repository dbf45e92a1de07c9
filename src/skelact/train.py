"""Training loop, optimizer, loss, the dataset container they share, and
the run config that pairs a ModelConfig with a TrainConfig.

Determinism contract: given the same manifest, split, configuration and
seed, a run touches the same bytes in the same order. Shuffling draws from
a per-epoch generator seeded with (seed, epoch); per-sample augmentation
draws from a generator seeded with (seed, epoch, sample index), so neither
batch size nor evaluation order can shift anything.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (check_count, check_fraction, check_non_negative, read_document,
                     resolve_relative)
from .errors import ConfigurationError, NonFiniteError
from .manifest import DatasetManifest, ProtocolSplit
from .metrics import check_logits, top_k_accuracy
from .model import ModelConfig, StgcnNetwork, check_mode, load_weights, set_trainable
from .pipeline import AugmentConfig, augment_combined, normalize_centralize, track
from .sequence import (
    SkeletonSequence,
    convert_layout,
    load_sequence,
    to_model_input,
)


def _check_optimizer_options(momentum, weight_decay) -> None:
    check_fraction("momentum", momentum)
    check_non_negative("weight_decay", weight_decay)


@dataclass
class TrainConfig:
    """Everything the training loop needs besides the data and the model,
    checked when built."""

    mode: str = "vanilla"
    base_lr: float = 0.001
    decay_boundaries: tuple[int, ...] = (10, 20)
    decay_factor: float = 0.1
    batch_size: int = 4
    epochs: int = 30
    seed: int = 0
    momentum: float = 0.0
    weight_decay: float = 0.0
    source_checkpoint: str | None = None
    augmentation: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        check_mode(self.mode)
        if not self.base_lr > 0.0:
            raise ConfigurationError(f"base_lr: must be positive, got {self.base_lr}")
        if not 0.0 < self.decay_factor < 1.0:
            raise ConfigurationError(
                f"decay_factor: must lie in (0, 1), got {self.decay_factor}"
            )
        boundaries = tuple(self.decay_boundaries)
        if any(b < 0 for b in boundaries) or list(boundaries) != sorted(set(boundaries)):
            raise ConfigurationError(
                "decay_boundaries: must be strictly increasing and non-negative"
            )
        check_count("batch_size", self.batch_size)
        check_count("epochs", self.epochs)
        check_non_negative("seed", self.seed)
        _check_optimizer_options(self.momentum, self.weight_decay)
        if self.mode == "vanilla" and self.source_checkpoint:
            raise ConfigurationError("source_checkpoint: not allowed for mode 'vanilla'")
        if self.mode != "vanilla" and not self.source_checkpoint:
            raise ConfigurationError(f"source_checkpoint: required for mode {self.mode!r}")


@dataclass
class RunConfig:
    """A run configuration file: the manifest path plus the ``model`` and
    ``train`` objects, whose keys are ModelConfig's and TrainConfig's fields.

    Each of those checks its own fields; this checks the one setting that
    spans both, as a window cut longer than the loaded sequences would
    fail only at the first training batch.
    """

    manifest: str
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        augmentation = self.train.augmentation
        if augmentation.window and augmentation.window_size > self.model.target_frames:
            raise ConfigurationError(
                f"train.augmentation.window_size: must not exceed model.target_frames "
                f"({self.model.target_frames}), got {augmentation.window_size}"
            )


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run config; its paths resolve from its directory."""
    config = read_document(RunConfig, path, "config")
    base = Path(path).parent
    config.manifest = resolve_relative(base, config.manifest)
    config.train.source_checkpoint = resolve_relative(
        base, config.train.source_checkpoint)
    return config


def lr_schedule(
    epoch: int,
    base_lr: float,
    boundaries: tuple[int, ...] = (),
    factor: float = 0.1,
) -> float:
    """Piecewise-constant decay: one factor applied per boundary reached."""
    drops = sum(1 for boundary in boundaries if epoch >= boundary)
    return base_lr * factor ** drops


def cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean categorical cross entropy from raw logits, with its gradient.

    Uses the log-sum-exp shift for stability. The returned gradient is
    (softmax - onehot) / N, ready to seed the network backward pass.
    """
    logits, labels = check_logits(logits, labels, "cross entropy")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ConfigurationError("labels must be integers")
    count = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    rows = np.arange(count)
    loss = float(-log_probs[rows, labels].mean())
    grad = np.exp(log_probs)
    grad[rows, labels] -= 1.0
    grad /= count
    return loss, grad


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    Only trainable tensors move; a tensor's first step makes its momentum
    velocity from the step's own gradient array. Every gradient buffer is
    dropped after the step (``Tensor.zero_grad``), so no tensor holds one
    between steps and frozen tensors cannot keep stale gradients either.
    """

    def __init__(self, tensors, momentum: float = 0.0, weight_decay: float = 0.0):
        _check_optimizer_options(momentum, weight_decay)
        self.tensors = list(tensors)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}

    def step(self, lr: float) -> None:
        check_non_negative("lr", lr)
        for index, tensor in enumerate(self.tensors):
            if tensor.trainable:
                grad = tensor.grad
                if grad is None:
                    grad = np.zeros_like(tensor.data)
                if self.weight_decay:
                    grad = grad + self.weight_decay * tensor.data
                if self.momentum:
                    velocity = self._velocity.get(index)
                    if velocity is None:
                        # 0 + grad, in the array the tensor drops below:
                        # + 0.0 turns -0.0 into 0.0 as that sum does.
                        velocity = self._velocity[index] = grad
                        velocity += 0.0
                    else:
                        velocity *= self.momentum
                        velocity += grad
                    grad = velocity
                tensor.data -= lr * grad
            tensor.zero_grad()


class SequenceDataset:
    """Labeled, fully preprocessed skeleton sequences held in memory."""

    def __init__(
        self,
        sequences: list[SkeletonSequence],
        labels,
        sample_ids: list[str],
    ):
        self.sequences = list(sequences)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (len(self.sequences),):
            raise ConfigurationError(
                f"got {len(self.sequences)} sequences and "
                f"{self.labels.shape} labels"
            )
        if len(self.sequences) and self.labels.min() < 0:
            raise ConfigurationError("labels must be non-negative")
        if len(sample_ids) != len(self.sequences):
            raise ConfigurationError("sample_ids must match the sequence count")
        self.sample_ids = list(sample_ids)

    def __len__(self) -> int:
        return len(self.sequences)

    def input(self, index: int) -> np.ndarray:
        return to_model_input(self.sequences[index])

    @classmethod
    def from_manifest(
        cls,
        manifest: DatasetManifest,
        sample_ids,
        class_names,
        model_config: ModelConfig,
    ) -> "SequenceDataset":
        """Load, convert, track and normalize the given samples.

        Labels are indices into ``class_names`` (the protocol's class
        list), not into the full manifest class table.
        """
        records = manifest.by_id()
        class_index = {name: i for i, name in enumerate(class_names)}
        sequences = []
        labels = []
        for sample_id in sample_ids:
            if sample_id not in records:
                raise ConfigurationError(
                    f"split references unknown sample {sample_id!r}"
                )
            record = records[sample_id]
            if record.class_name not in class_index:
                raise ConfigurationError(
                    f"sample {sample_id!r} has class {record.class_name!r} "
                    f"outside the split's classes"
                )
            seq = load_sequence(
                record.keypoint_path,
                manifest.layout,
                person_slots=model_config.person_slots,
                target_frames=model_config.target_frames,
                image_size=record.image_size,
            )
            seq = convert_layout(seq, model_config.layout)
            seq = track(seq)
            seq = normalize_centralize(seq)
            sequences.append(seq)
            labels.append(class_index[record.class_name])
        return cls(sequences, labels, list(sample_ids))


def evaluate(
    net: StgcnNetwork, dataset: SequenceDataset, batch_size: int = 4
) -> tuple[float, np.ndarray]:
    """Top-1 accuracy and the full logit matrix, in dataset order.

    Each batch is an evaluation forward: it records no graph, and every
    batch norm uses its running statistics, as a frozen one does in
    training. A NaN or infinite logit raises ``NonFiniteError`` naming
    its batch.
    """
    check_count("batch_size", batch_size)
    if len(dataset) == 0:
        raise ConfigurationError("cannot evaluate an empty dataset")
    logits = np.zeros((len(dataset), net.num_classes))
    for start in range(0, len(dataset), batch_size):
        stop = min(start + batch_size, len(dataset))
        batch = np.stack([dataset.input(i) for i in range(start, stop)])
        logits[start:stop] = net.forward(batch, training=False).data
        if not np.isfinite(logits[start:stop]).all():
            raise NonFiniteError(
                f"evaluation batch {start // batch_size}: logits are not finite"
            )
    return top_k_accuracy(logits, dataset.labels, 1), logits


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    train_top1: float
    test_top1: float


@dataclass
class TrainHistory:
    """Per-epoch numbers plus a snapshot of the best-scoring weights."""

    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_test_top1: float = -1.0
    best_state: dict[str, np.ndarray] | None = None

    def to_csv(self) -> str:
        lines = ["epoch,lr,train_loss,train_top1,test_top1"]
        for r in self.records:
            lines.append(
                f"{r.epoch},{r.lr!r},{r.train_loss!r},{r.train_top1!r},{r.test_top1!r}"
            )
        return "\n".join(lines) + "\n"


def _check_finite(loss: float, net: StgcnNetwork, epoch: int, batch: int) -> None:
    """Fail before the optimizer step if the loss or a gradient is not finite."""
    if not math.isfinite(loss):
        raise NonFiniteError(f"epoch {epoch}, batch {batch}: loss is {loss}")
    for name, tensor in net.named_parameters().items():
        if (tensor.trainable and tensor.grad is not None
                and not np.isfinite(tensor.grad).all()):
            raise NonFiniteError(
                f"epoch {epoch}, batch {batch}: gradient of {name} is not finite"
            )


def train_loop(
    net: StgcnNetwork,
    train_dataset: SequenceDataset,
    test_dataset: SequenceDataset,
    config: TrainConfig,
    stop_when=None,
) -> TrainHistory:
    """Run the full schedule, evaluating after each epoch.

    The weights with the best test accuracy seen so far are snapshotted
    into the history (ties keep the earlier epoch). ``stop_when``, if
    given, sees the history after each epoch and may end training early.
    The network is left in its final state, not the best one. A NaN or
    infinite loss or gradient raises ``NonFiniteError`` before the step
    that would apply it.
    """
    for name, dataset in (("training", train_dataset), ("test", test_dataset)):
        if len(dataset) == 0:
            raise ConfigurationError(f"{name} dataset is empty")
    optimizer = SGD(
        net.parameters(),
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    history = TrainHistory()
    count = len(train_dataset)
    for epoch in range(config.epochs):
        lr = lr_schedule(
            epoch, config.base_lr, config.decay_boundaries, config.decay_factor
        )
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, epoch])
        )
        order = shuffle_rng.permutation(count)
        loss_sum = 0.0
        hits = 0
        for start in range(0, count, config.batch_size):
            chosen = order[start:start + config.batch_size]
            inputs = []
            for dataset_index in chosen:
                seq = train_dataset.sequences[dataset_index]
                if config.augmentation.enabled():
                    sample_rng = np.random.default_rng(
                        np.random.SeedSequence(
                            [config.seed, epoch, int(dataset_index)]
                        )
                    )
                    seq = augment_combined(seq, config.augmentation, sample_rng)
                inputs.append(to_model_input(seq))
            batch = np.stack(inputs)
            labels = train_dataset.labels[chosen]
            logits = net.forward(batch, training=True)
            loss, loss_grad = cross_entropy(logits.data, labels)
            logits.backward(loss_grad)
            hits += int((np.argmax(logits.data, axis=1) == labels).sum())
            # Backward freed the step's graph; only the logits are left.
            del logits
            _check_finite(loss, net, epoch, start // config.batch_size)
            optimizer.step(lr)
            loss_sum += loss * len(chosen)
        test_top1, _ = evaluate(net, test_dataset, config.batch_size)
        history.records.append(
            EpochRecord(epoch, lr, loss_sum / count, hits / count, test_top1)
        )
        if test_top1 > history.best_test_top1:
            history.best_test_top1 = test_top1
            history.best_epoch = epoch
            history.best_state = {
                name: array.copy() for name, array in net.state_arrays().items()
            }
        if stop_when is not None and stop_when(history):
            break
    return history


def run_training(
    manifest: DatasetManifest,
    split: ProtocolSplit,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> tuple[StgcnNetwork, TrainHistory]:
    """Build a network and datasets for a split, then train.

    Modes other than vanilla start from ``source_checkpoint`` (classifier
    head excluded when its shape differs) and freeze layers according to
    the mode; the checkpoint is loaded before any keypoint file is read.
    """
    if len(split.class_names) < 2:
        raise ConfigurationError("split must cover at least 2 classes")
    net = model_config.build(len(split.class_names))
    if train_config.source_checkpoint:
        load_weights(net, train_config.source_checkpoint, strict_head=False)
    set_trainable(net, train_config.mode)
    train_dataset = SequenceDataset.from_manifest(
        manifest, split.train_ids, split.class_names, model_config
    )
    test_dataset = SequenceDataset.from_manifest(
        manifest, split.test_ids, split.class_names, model_config
    )
    history = train_loop(net, train_dataset, test_dataset, train_config)
    return net, history
