"""Spatial-temporal graph convolutional network over skeleton sequences.

The network takes a batch shaped ``(N, C, T, V, M)``: samples, coordinate
channels, frames, joints, person slots. Person slots are folded into the
batch so every person runs through the same weights, and their features
are pooled again just before the classifier.

Each block applies a spatial graph convolution (one weight matrix per
adjacency partition, each partition gated by a learnable edge-importance
mask), batch normalization, ReLU, a depthwise temporal convolution, batch
normalization, and a residual connection. Channels widen and frames thin
out along the stack; global average pooling and a linear head produce the
class scores.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ConfigurationError, StateError
from .graph import PartitionedAdjacency, build_graph, partition_spatial
from .keypoints import COCO18

TEMPORAL_KERNEL = 9

# (out_channels, temporal_stride) per block.
DEFAULT_CHANNEL_PLAN = (
    (64, 1), (64, 1), (64, 1), (64, 1),
    (128, 2), (128, 1), (128, 1),
    (256, 2), (256, 1), (256, 1),
)

MODES = ("vanilla", "propagation", "fine_tune", "feature_extraction")
PERSON_POOLS = ("mean", "sum")

CHECKPOINT_MAGIC = b"SKGC0001"
CHECKPOINT_FORMAT = 1
# Classifier arrays skipped by load_weights(strict_head=False) when their
# shape disagrees, so a head trained for another class count can be
# replaced by a fresh one.
HEAD_ARRAYS = ("fc.weight", "fc.bias")


def _check_network_options(
    in_channels, person_pool, dropout, zero_confidence, channel_plan, prefix=""
) -> tuple[tuple[int, int], ...]:
    """Validate the network options and return the channel plan to build.

    Messages start with ``prefix`` (``"model."`` for a run config).
    """
    if in_channels < 1:
        raise ConfigurationError(f"{prefix}in_channels: must be at least 1")
    if person_pool not in PERSON_POOLS:
        raise ConfigurationError(
            f"{prefix}person_pool: expected one of {PERSON_POOLS}, "
            f"got {person_pool!r}"
        )
    if not 0.0 <= dropout < 1.0:
        raise ConfigurationError(f"{prefix}dropout: must lie in [0, 1), got {dropout}")
    if zero_confidence and in_channels != 3:
        raise ConfigurationError(
            f"{prefix}zero_confidence: needs the (x, y, confidence) channel layout"
        )
    plan = tuple(
        (int(c), int(s))
        for c, s in (channel_plan if channel_plan is not None else DEFAULT_CHANNEL_PLAN)
    )
    if not plan:
        raise ConfigurationError(f"{prefix}channel_plan: needs at least one block")
    for index, (channels, stride) in enumerate(plan):
        if channels < 1 or stride < 1:
            raise ConfigurationError(
                f"{prefix}channel_plan[{index}]: channels and stride must be positive"
            )
    return plan


class BatchNorm:
    """Per-channel batch normalization with tracked running statistics.

    Training uses batch statistics (and folds them into the running ones
    with the given momentum); evaluation uses the running statistics, so a
    sample's output does not depend on what it is batched with. With
    ``track_stats`` off the layer always normalizes with batch statistics
    and never updates anything, a fallback for tiny runs. A frozen layer
    always uses its running statistics and never updates them.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5,
                 track_stats: bool = True):
        self.gamma = Tensor(np.ones(channels), trainable=True)
        self.beta = Tensor(np.zeros(channels), trainable=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps
        self.track_stats = track_stats
        self.frozen = False

    def forward(self, x: Tensor, training: bool) -> Tensor:
        if self.frozen or (self.track_stats and not training):
            return ad.batch_norm_given(
                x, self.gamma, self.beta,
                self.running_mean, self.running_var, self.eps,
            )
        if self.track_stats:
            # Biased variance, matching what the normalization itself uses.
            mu = x.data.mean(axis=(0, 2, 3))
            var = x.data.var(axis=(0, 2, 3))
            m = self.momentum
            self.running_mean = (1.0 - m) * self.running_mean + m * mu
            self.running_var = (1.0 - m) * self.running_var + m * var
        return ad.batch_norm_batch(x, self.gamma, self.beta, self.eps)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("gamma", self.gamma), ("beta", self.beta)]

    def state(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("gamma", self.gamma.data),
            ("beta", self.beta.data),
            ("running_mean", self.running_mean),
            ("running_var", self.running_var),
        ]


def spatial_graph_conv(
    x: Tensor,
    adjacency: list[Tensor],
    weights: list[Tensor],
    edge_importance: list[Tensor],
    bias: Tensor | None = None,
) -> Tensor:
    """Graph convolution over the joint axis of a (B, C, T, V) tensor.

    For each partition k the input is aggregated over the joint axis with
    the gated adjacency ``A_k * M_k`` and mixed across channels with
    ``W_k``; the partition results are summed:

        y[b, d, t, w] = sum_k sum_v sum_c x[b, c, t, v] (A_k * M_k)[v, w] W_k[c, d]
    """
    if not len(adjacency) == len(weights) == len(edge_importance):
        raise ConfigurationError(
            "adjacency, weights and edge_importance must have equal length"
        )
    out: Tensor | None = None
    for a_k, w_k, m_k in zip(adjacency, weights, edge_importance):
        aggregated = ad.matmul_last(x, ad.mul(a_k, m_k))
        mixed = ad.transpose(aggregated, (0, 2, 3, 1))
        mixed = ad.matmul_last(mixed, w_k)
        mixed = ad.transpose(mixed, (0, 3, 1, 2))
        out = mixed if out is None else ad.add(out, mixed)
    if bias is not None:
        out = ad.add(out, ad.reshape(bias, (1, -1, 1, 1)))
    return out


class StgcnBlock:
    """One spatial-temporal unit: graph conv, temporal conv, residual."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        vertex_count: int,
        partition_count: int,
        rng: np.random.Generator,
        stride: int = 1,
        residual: bool = True,
        dropout: float = 0.0,
        track_stats: bool = True,
    ):
        gcn_bound = 1.0 / np.sqrt(in_channels)
        self.gcn_weights = [
            Tensor(
                rng.uniform(-gcn_bound, gcn_bound, (in_channels, out_channels)),
                trainable=True,
            )
            for _ in range(partition_count)
        ]
        self.gcn_bias = Tensor(np.zeros(out_channels), trainable=True)
        self.edge_masks = [
            Tensor(np.ones((vertex_count, vertex_count)), trainable=True)
            for _ in range(partition_count)
        ]
        self.bn1 = BatchNorm(out_channels, track_stats=track_stats)
        tcn_bound = 1.0 / np.sqrt(TEMPORAL_KERNEL)
        self.tcn_kernel = Tensor(
            rng.uniform(-tcn_bound, tcn_bound, (out_channels, TEMPORAL_KERNEL)),
            trainable=True,
        )
        self.tcn_bias = Tensor(np.zeros(out_channels), trainable=True)
        self.bn2 = BatchNorm(out_channels, track_stats=track_stats)
        self.stride = stride
        self.dropout = dropout
        if not residual:
            self.residual = "none"
            self.res_weight = None
            self.res_bn = None
        elif in_channels == out_channels and stride == 1:
            self.residual = "identity"
            self.res_weight = None
            self.res_bn = None
        else:
            self.residual = "project"
            self.res_weight = Tensor(
                rng.uniform(-gcn_bound, gcn_bound, (in_channels, out_channels)),
                trainable=True,
            )
            self.res_bn = BatchNorm(out_channels, track_stats=track_stats)

    def forward(
        self,
        x: Tensor,
        adjacency: list[Tensor],
        training: bool,
        rng: np.random.Generator | None,
    ) -> Tensor:
        y = spatial_graph_conv(
            x, adjacency, self.gcn_weights, self.edge_masks, self.gcn_bias
        )
        y = self.bn1.forward(y, training)
        y = ad.relu(y)
        y = ad.temporal_conv(y, self.tcn_kernel, self.stride)
        y = ad.add(y, ad.reshape(self.tcn_bias, (1, -1, 1, 1)))
        y = self.bn2.forward(y, training)
        if training and self.dropout > 0.0:
            y = ad.dropout(y, self.dropout, rng)
        if self.residual == "identity":
            y = ad.add(y, x)
        elif self.residual == "project":
            shortcut = x if self.stride == 1 else ad.temporal_subsample(x, self.stride)
            shortcut = ad.transpose(shortcut, (0, 2, 3, 1))
            shortcut = ad.matmul_last(shortcut, self.res_weight)
            shortcut = ad.transpose(shortcut, (0, 3, 1, 2))
            shortcut = self.res_bn.forward(shortcut, training)
            y = ad.add(y, shortcut)
        return ad.relu(y)

    def parameters(self) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = []
        for k, weight in enumerate(self.gcn_weights):
            named.append((f"gcn_weight.{k}", weight))
        named.append(("gcn_bias", self.gcn_bias))
        for k, mask in enumerate(self.edge_masks):
            named.append((f"edge_mask.{k}", mask))
        named.extend((f"bn1.{n}", t) for n, t in self.bn1.parameters())
        named.append(("tcn_kernel", self.tcn_kernel))
        named.append(("tcn_bias", self.tcn_bias))
        named.extend((f"bn2.{n}", t) for n, t in self.bn2.parameters())
        if self.residual == "project":
            named.append(("res_weight", self.res_weight))
            named.extend((f"res_bn.{n}", t) for n, t in self.res_bn.parameters())
        return named

    def batch_norms(self) -> list[tuple[str, BatchNorm]]:
        layers = [("bn1", self.bn1), ("bn2", self.bn2)]
        if self.res_bn is not None:
            layers.append(("res_bn", self.res_bn))
        return layers


class StgcnNetwork:
    """The full classifier network.

    Weight initialization draws from one seeded generator in construction
    order (blocks in order; within a block the partition weights, then the
    projection weight if any, then the temporal kernel), so a seed pins
    every initial value. Biases start at zero, edge masks at one, batch
    norm at identity.
    """

    def __init__(
        self,
        adjacency: PartitionedAdjacency,
        num_classes: int,
        in_channels: int = 3,
        channel_plan=None,
        person_pool: str = "mean",
        zero_confidence: bool = False,
        dropout: float = 0.0,
        track_stats: bool = True,
        seed: int = 0,
    ):
        if num_classes < 2:
            raise ConfigurationError("num_classes: must be at least 2")
        plan = _check_network_options(
            in_channels, person_pool, dropout, zero_confidence, channel_plan
        )

        self.layout = adjacency.layout
        self.vertex_count = adjacency.vertex_count
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.channel_plan = plan
        self.person_pool = person_pool
        self.zero_confidence = zero_confidence
        self.dropout = dropout
        self.track_stats = track_stats
        self.seed = seed
        self.mode = "vanilla"

        self.adjacency = [
            Tensor(adjacency.matrices[k]) for k in range(adjacency.partition_count)
        ]

        rng = np.random.default_rng(seed)
        self.input_bn = BatchNorm(
            self.vertex_count * in_channels, track_stats=track_stats
        )
        self.blocks: list[StgcnBlock] = []
        previous = in_channels
        for index, (channels, stride) in enumerate(plan):
            self.blocks.append(
                StgcnBlock(
                    previous,
                    channels,
                    self.vertex_count,
                    adjacency.partition_count,
                    rng,
                    stride=stride,
                    residual=index > 0,
                    dropout=dropout,
                    track_stats=track_stats,
                )
            )
            previous = channels
        feature_count = plan[-1][0]
        fc_bound = 1.0 / np.sqrt(feature_count)
        self.fc_weight = Tensor(
            rng.uniform(-fc_bound, fc_bound, (feature_count, num_classes)),
            trainable=True,
        )
        self.fc_bias = Tensor(np.zeros(num_classes), trainable=True)
        # Initialization is done; the rest of the stream feeds dropout.
        self._forward_rng = rng
        self._last_output: Tensor | None = None

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 5:
            raise ConfigurationError(
                f"input must have shape (N, C, T, V, M), got {x.shape}"
            )
        samples, channels, frames, vertices, slots = x.shape
        if channels != self.in_channels:
            raise ConfigurationError(
                f"input has {channels} channels, network expects {self.in_channels}"
            )
        if vertices != self.vertex_count:
            raise ConfigurationError(
                f"input has {vertices} joints, graph has {self.vertex_count}"
            )
        if self.zero_confidence:
            x = x.copy()
            x[:, 2] = 0.0

        if rng is None:
            rng = self._forward_rng
        h = Tensor(x)
        h = ad.transpose(h, (0, 4, 1, 2, 3))
        h = ad.reshape(h, (samples * slots, channels, frames, vertices))
        # Normalize per joint-channel pair over the batch and time.
        h = ad.transpose(h, (0, 3, 1, 2))
        h = ad.reshape(h, (samples * slots, vertices * channels, frames, 1))
        h = self.input_bn.forward(h, training)
        h = ad.reshape(h, (samples * slots, vertices, channels, frames))
        h = ad.transpose(h, (0, 2, 3, 1))
        for block in self.blocks:
            h = block.forward(h, self.adjacency, training, rng)
        h = ad.mean(h, axes=(2, 3))
        h = ad.reshape(h, (samples, slots, self.channel_plan[-1][0]))
        if self.person_pool == "mean":
            h = ad.mean(h, axes=(1,))
        else:
            h = ad.reduce_sum(h, axes=(1,))
        logits = ad.add(ad.matmul_last(h, self.fc_weight), self.fc_bias)
        self._last_output = logits
        return logits

    __call__ = forward

    def backward(self, grad: np.ndarray) -> None:
        """Push a loss gradient through the most recent forward pass."""
        if self._last_output is None:
            raise StateError("backward() called before forward()")
        self._last_output.backward(grad)

    def named_parameters(self) -> dict[str, Tensor]:
        named: dict[str, Tensor] = {}
        for suffix, tensor in self.input_bn.parameters():
            named[f"input_bn.{suffix}"] = tensor
        for index, block in enumerate(self.blocks):
            for suffix, tensor in block.parameters():
                named[f"blocks.{index}.{suffix}"] = tensor
        named["fc.weight"] = self.fc_weight
        named["fc.bias"] = self.fc_bias
        return named

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def trainable_parameters(self) -> list[Tensor]:
        return [t for t in self.parameters() if t.trainable]

    def batch_norm_layers(self) -> list[tuple[str, BatchNorm]]:
        layers = [("input_bn", self.input_bn)]
        for index, block in enumerate(self.blocks):
            for suffix, bn in block.batch_norms():
                layers.append((f"blocks.{index}.{suffix}", bn))
        return layers

    def zero_grad(self) -> None:
        for tensor in self.parameters():
            tensor.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every persistent array: parameters plus running statistics."""
        state: dict[str, np.ndarray] = {
            name: tensor.data for name, tensor in self.named_parameters().items()
        }
        for name, bn in self.batch_norm_layers():
            state[f"{name}.running_mean"] = bn.running_mean
            state[f"{name}.running_var"] = bn.running_var
        return state

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy values into the network's arrays, matched by name."""
        named = self.named_parameters()
        norms = dict(self.batch_norm_layers())
        for name, value in arrays.items():
            value = np.asarray(value, dtype=np.float64)
            if name in named:
                if named[name].data.shape != value.shape:
                    raise CheckpointError(
                        f"array {name} has shape {value.shape}, network "
                        f"expects {named[name].data.shape}"
                    )
                named[name].data[...] = value
                continue
            layer_name, _, stat = name.rpartition(".")
            if layer_name not in norms or stat not in ("running_mean", "running_var"):
                raise CheckpointError(f"unknown array {name!r}")
            current = getattr(norms[layer_name], stat)
            if current.shape != value.shape:
                raise CheckpointError(
                    f"array {name} has shape {value.shape}, network "
                    f"expects {current.shape}"
                )
            setattr(norms[layer_name], stat, value.copy())

    def meta(self) -> dict:
        return {
            "layout": self.layout,
            "vertex_count": self.vertex_count,
            "partition_count": len(self.adjacency),
            "num_classes": self.num_classes,
            "in_channels": self.in_channels,
            "channel_plan": [list(pair) for pair in self.channel_plan],
            "person_pool": self.person_pool,
        }


def set_trainable(net: StgcnNetwork, mode: str) -> None:
    """Apply one of the transfer regimes by toggling trainability.

    ``vanilla`` and ``propagation`` leave everything trainable (they
    differ only in whether training starts from a checkpoint);
    ``fine_tune`` keeps the last block and the classifier trainable;
    ``feature_extraction`` keeps only the classifier. Batch norm layers
    whose parameters are frozen also stop updating their running
    statistics and always normalize with them.
    """
    if mode not in MODES:
        raise ConfigurationError(
            f"mode: expected one of {MODES}, got {mode!r}"
        )
    if mode in ("vanilla", "propagation"):
        prefixes: tuple[str, ...] | None = None
    elif mode == "fine_tune":
        prefixes = (f"blocks.{len(net.blocks) - 1}.", "fc.")
    else:
        prefixes = ("fc.",)
    for name, tensor in net.named_parameters().items():
        tensor.trainable = prefixes is None or name.startswith(prefixes)
    for _, bn in net.batch_norm_layers():
        bn.frozen = not bn.gamma.trainable
    net.mode = mode


def save_weights(net: StgcnNetwork, path: str | Path) -> None:
    """Write all persistent arrays to a flat binary checkpoint.

    The format is a magic string, a little-endian uint64 header length, a
    JSON header (sorted keys, no indentation) describing the arrays and
    the network structure, then the raw float64 buffers in header order.
    Identical state produces identical bytes.
    """
    arrays = net.state_arrays()
    entries = []
    buffers = []
    offset = 0
    for name, array in arrays.items():
        buffer = np.ascontiguousarray(array, dtype=np.float64).tobytes()
        entries.append({"name": name, "shape": list(array.shape), "offset": offset})
        buffers.append(buffer)
        offset += len(buffer)
    header = {
        "format": CHECKPOINT_FORMAT,
        "meta": net.meta(),
        "arrays": entries,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<Q", len(blob)))
        handle.write(blob)
        for buffer in buffers:
            handle.write(buffer)


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint's metadata and arrays without needing a network."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < len(CHECKPOINT_MAGIC) + 8 or not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path} is not a checkpoint file")
    header_length = struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC))[0]
    header_start = len(CHECKPOINT_MAGIC) + 8
    payload_start = header_start + header_length
    if payload_start > len(raw):
        raise CheckpointError(f"{path} is truncated")
    try:
        header = json.loads(raw[header_start:payload_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path} has a corrupt header") from exc
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path} uses checkpoint format {header.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT}"
        )
    arrays: dict[str, np.ndarray] = {}
    for entry in header.get("arrays", []):
        shape = tuple(int(v) for v in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = payload_start + int(entry["offset"])
        end = start + 8 * count
        if end > len(raw):
            raise CheckpointError(f"{path} is truncated")
        arrays[str(entry["name"])] = np.frombuffer(
            raw[start:end], dtype=np.float64
        ).reshape(shape).copy()
    return header.get("meta", {}), arrays


def load_weights(
    net: StgcnNetwork, path: str | Path, strict_head: bool = True
) -> list[str]:
    """Load a checkpoint into a network, matching arrays by name.

    Every array must exist on both sides with an equal shape, except that
    with ``strict_head`` off the classifier head may disagree in shape and
    is then left at its current values (the transfer-learning entry
    point). Returns the names of skipped arrays.
    """
    _, arrays = read_checkpoint(path)
    state = net.state_arrays()
    missing = sorted(set(state) - set(arrays))
    unexpected = sorted(set(arrays) - set(state))
    if missing or unexpected:
        raise CheckpointError(
            f"{path} does not match the network structure "
            f"(missing {missing or 'none'}, unexpected {unexpected or 'none'})"
        )
    skipped: list[str] = []
    updates: dict[str, np.ndarray] = {}
    for name, current in state.items():
        incoming = arrays[name]
        if incoming.shape != current.shape:
            if not strict_head and name in HEAD_ARRAYS:
                skipped.append(name)
                continue
            raise CheckpointError(
                f"{path}: array {name} has shape {incoming.shape}, "
                f"network expects {current.shape}"
            )
        updates[name] = incoming
    net.load_state_arrays(updates)
    return skipped


@dataclass
class ModelConfig:
    """Declarative network and preprocessing settings.

    ``person_slots`` and ``target_frames`` steer sequence loading rather
    than the network itself; they live here so one object pins the whole
    input contract. ``channel_plan`` overrides the default block layout
    for small-scale runs.
    """

    layout: str = COCO18
    person_slots: int = 2
    target_frames: int = 300
    in_channels: int = 3
    person_pool: str = "mean"
    zero_confidence: bool = False
    dropout: float = 0.0
    track_stats: bool = True
    channel_plan: tuple[tuple[int, int], ...] | None = None
    seed: int = 0

    def validate(self) -> None:
        build_graph(self.layout)
        if self.person_slots < 1:
            raise ConfigurationError("model.person_slots: must be at least 1")
        if self.target_frames < 1:
            raise ConfigurationError("model.target_frames: must be at least 1")
        _check_network_options(
            self.in_channels, self.person_pool, self.dropout,
            self.zero_confidence, self.channel_plan, prefix="model.",
        )

    def build(self, num_classes: int) -> StgcnNetwork:
        self.validate()
        adjacency = partition_spatial(build_graph(self.layout))
        return StgcnNetwork(
            adjacency,
            num_classes,
            in_channels=self.in_channels,
            channel_plan=self.channel_plan,
            person_pool=self.person_pool,
            zero_confidence=self.zero_confidence,
            dropout=self.dropout,
            track_stats=self.track_stats,
            seed=self.seed,
        )
