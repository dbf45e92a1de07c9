"""Training loop, optimizer, loss, and the dataset container they share.

Determinism contract: given the same manifest, split, configuration and
seed, a run touches the same bytes in the same order. Shuffling draws from
a per-epoch generator seeded with (seed, epoch); per-sample augmentation
draws from a generator seeded with (seed, epoch, sample index), so neither
batch size nor evaluation order can shift anything.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .manifest import DatasetManifest, ProtocolSplit
from .metrics import check_logits, top_k_accuracy
from .model import MODES, ModelConfig, StgcnNetwork, load_weights, set_trainable
from .pipeline import AugmentConfig, augment_combined, normalize_centralize, track
from .sequence import (
    SkeletonSequence,
    convert_layout,
    load_sequence,
    to_model_input,
)


def _check_optimizer_options(momentum, weight_decay, prefix="") -> None:
    """Validate the SGD options; messages start with ``prefix``."""
    if not 0.0 <= momentum < 1.0:
        raise ConfigurationError(
            f"{prefix}momentum: must lie in [0, 1), got {momentum}"
        )
    if weight_decay < 0.0:
        raise ConfigurationError(f"{prefix}weight_decay: must be non-negative")


@dataclass
class TrainConfig:
    """Everything the training loop needs besides the data and the model."""

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

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"train.mode: expected one of {MODES}, got {self.mode!r}"
            )
        if not self.base_lr > 0.0:
            raise ConfigurationError(
                f"train.base_lr: must be positive, got {self.base_lr}"
            )
        if not 0.0 < self.decay_factor < 1.0:
            raise ConfigurationError(
                f"train.decay_factor: must lie in (0, 1), got {self.decay_factor}"
            )
        boundaries = tuple(self.decay_boundaries)
        if any(b < 0 for b in boundaries) or list(boundaries) != sorted(set(boundaries)):
            raise ConfigurationError(
                "train.decay_boundaries: must be strictly increasing and non-negative"
            )
        if self.batch_size < 1:
            raise ConfigurationError("train.batch_size: must be at least 1")
        if self.epochs < 1:
            raise ConfigurationError("train.epochs: must be at least 1")
        _check_optimizer_options(self.momentum, self.weight_decay, prefix="train.")
        if self.mode != "vanilla" and not self.source_checkpoint:
            raise ConfigurationError(
                f"train.source_checkpoint: required for mode {self.mode!r}"
            )
        self.augmentation.validate()


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

    Only trainable tensors move; every tensor's gradient is cleared after
    the step, so frozen tensors cannot accumulate stale gradients either.
    """

    def __init__(self, tensors, momentum: float = 0.0, weight_decay: float = 0.0):
        _check_optimizer_options(momentum, weight_decay)
        self.tensors = list(tensors)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(t.data) for t in self.tensors]

    def step(self, lr: float) -> None:
        if lr < 0.0:
            raise ConfigurationError(f"lr: must be non-negative, got {lr}")
        for tensor, velocity in zip(self.tensors, self._velocity):
            if tensor.trainable:
                grad = tensor.grad
                if self.weight_decay:
                    grad = grad + self.weight_decay * tensor.data
                if self.momentum:
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
        sample_ids: list[str] | None = None,
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
        if sample_ids is None:
            sample_ids = [str(i) for i in range(len(self.sequences))]
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
                record,
                manifest.layout,
                person_slots=model_config.person_slots,
                target_frames=model_config.target_frames,
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
    """Top-1 accuracy and the full logit matrix, in dataset order."""
    if len(dataset) == 0:
        raise ConfigurationError("cannot evaluate an empty dataset")
    logits = np.zeros((len(dataset), net.num_classes))
    for start in range(0, len(dataset), batch_size):
        stop = min(start + batch_size, len(dataset))
        batch = np.stack([dataset.input(i) for i in range(start, stop)])
        logits[start:stop] = net.forward(batch, training=False).data
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
    The network is left in its final state, not the best one.
    """
    config.validate()
    if len(train_dataset) == 0:
        raise ConfigurationError("training dataset is empty")
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
                    seq = augment_combined(
                        seq, config.augmentation, sample_rng, training=True
                    )
                inputs.append(to_model_input(seq))
            batch = np.stack(inputs)
            labels = train_dataset.labels[chosen]
            logits = net.forward(batch, training=True)
            loss, loss_grad = cross_entropy(logits.data, labels)
            net.backward(loss_grad)
            optimizer.step(lr)
            loss_sum += loss * len(chosen)
            hits += int((np.argmax(logits.data, axis=1) == labels).sum())
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
    """Build datasets and a network for a split, then train.

    Modes other than vanilla start from ``source_checkpoint`` (classifier
    head excluded when its shape differs) and freeze layers according to
    the mode before the first step.
    """
    train_config.validate()
    model_config.validate()
    if len(split.class_names) < 2:
        raise ConfigurationError("split must cover at least 2 classes")
    train_dataset = SequenceDataset.from_manifest(
        manifest, split.train_ids, split.class_names, model_config
    )
    test_dataset = SequenceDataset.from_manifest(
        manifest, split.test_ids, split.class_names, model_config
    )
    net = model_config.build(len(split.class_names))
    if train_config.source_checkpoint:
        load_weights(net, train_config.source_checkpoint, strict_head=False)
    set_trainable(net, train_config.mode)
    history = train_loop(net, train_dataset, test_dataset, train_config)
    return net, history
