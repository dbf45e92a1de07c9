"""Spatial-temporal graph convolutional network over skeleton sequences.

The network takes a batch shaped ``(N, C, T, V, M)``: samples, coordinate
channels, frames, joints, person slots. Person slots are folded into the
batch so every person runs through the same weights, and their features
are pooled again just before the classifier. From the input batch norm to
the pooling, activations are laid out channels first, (C, N·M, T, V): each
channel's values over the whole batch are one contiguous row, so each
channel mix is one GEMM over the batch and each batch-norm sum one row.

Each block applies a spatial graph convolution (one weight matrix per
adjacency partition, each partition gated by a learnable edge-importance
mask), batch normalization, ReLU, a depthwise temporal convolution, batch
normalization, and a residual connection. It runs as two autodiff nodes:
the graph convolution, and the temporal convolution with the first batch
norm and ReLU as its prologue and the rest as its epilogue. The prologue
normalizes the graph convolution's output in place, which that node's
backward never reads. Channels widen and frames thin out along the stack;
global average pooling and a linear head produce the class scores.
"""
from __future__ import annotations

import json
import math
import struct
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .atomic import open_atomic
from .autodiff import Tensor
from .config import unique_keys
from .errors import CheckpointError, ConfigurationError
from .graph import PartitionedAdjacency, build_graph, partition_spatial
from .keypoints import COCO18, check_layout

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
CHECKPOINT_FORMAT = 2
# Format 1 also stored a bias in front of each block's bn1 and bn2. Batch
# norm cancels a constant added before it, so ``read_checkpoint`` folds
# each one into the running mean after it:
# (y + c - m) * a + beta = (y - (m - c)) * a + beta.
FORMAT_1_BIASES = {"gcn_bias": "bn1", "tcn_bias": "bn2"}
# Classifier arrays skipped by load_weights(strict_head=False) when their
# shape disagrees, so a head trained for another class count can be
# replaced by a fresh one.
HEAD_ARRAYS = ("fc.weight", "fc.bias")


def check_mode(mode, prefix="") -> None:
    """Validate a transfer mode; messages start with ``prefix``."""
    if mode not in MODES:
        raise ConfigurationError(f"{prefix}mode: expected one of {MODES}, got {mode!r}")


def _check_network_options(
    in_channels, person_pool, dropout, zero_confidence, channel_plan, seed, prefix=""
) -> tuple[tuple[int, int], ...]:
    """Validate the network options and return the channel plan to build.

    Messages start with ``prefix`` (``"model."`` for a run config).
    """
    if in_channels < 1:
        raise ConfigurationError(f"{prefix}in_channels: must be at least 1")
    if seed < 0:
        raise ConfigurationError(f"{prefix}seed: must be non-negative, got {seed}")
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

    Training normalizes with the batch statistics and folds them into the
    running ones with momentum ``MOMENTUM``. Evaluation, and any frozen
    layer (one whose ``gamma`` is not trainable), normalizes with the
    running statistics and leaves them alone, so a sample's output does
    not depend on what it is batched with.
    """

    MOMENTUM = 0.1
    EPS = 1e-5

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), trainable=True)
        self.beta = Tensor(np.zeros(channels), trainable=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    @property
    def frozen(self) -> bool:
        return not self.gamma.trainable

    def _track(self, mu: np.ndarray, var: np.ndarray) -> None:
        """Fold a training batch's statistics into the running ones."""
        m = self.MOMENTUM
        self.running_mean = (1.0 - m) * self.running_mean + m * mu
        self.running_var = (1.0 - m) * self.running_var + m * var

    def norm(self, training: bool) -> ad.Norm:
        """This layer as the epilogue of a convolution node, or as its own node.

        Training a layer that is not frozen normalizes with the batch
        statistics and tracks them; evaluation and a frozen layer use the
        running statistics, the fixed map ``x * a + b``.
        """
        running = None
        if self.frozen or not training:
            running = (self.running_mean, self.running_var)
        return ad.Norm(self.gamma, self.beta, self.EPS, running, self._track)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("gamma", self.gamma), ("beta", self.beta)]


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
    ):
        gcn_bound = 1.0 / np.sqrt(in_channels)
        self.gcn_weights = [
            Tensor(
                rng.uniform(-gcn_bound, gcn_bound, (in_channels, out_channels)),
                trainable=True,
            )
            for _ in range(partition_count)
        ]
        self.edge_masks = [
            Tensor(np.ones((vertex_count, vertex_count)), trainable=True)
            for _ in range(partition_count)
        ]
        self.bn1 = BatchNorm(out_channels)
        tcn_bound = 1.0 / np.sqrt(TEMPORAL_KERNEL)
        self.tcn_kernel = Tensor(
            rng.uniform(-tcn_bound, tcn_bound, (out_channels, TEMPORAL_KERNEL)),
            trainable=True,
        )
        self.bn2 = BatchNorm(out_channels)
        self.stride = stride
        self.dropout = dropout
        self.res_weight = None
        self.res_bn = None
        if not residual:
            self.residual = "none"
        elif in_channels == out_channels and stride == 1:
            self.residual = "identity"
        else:
            self.residual = "project"
            self.res_weight = Tensor(
                rng.uniform(-gcn_bound, gcn_bound, (in_channels, out_channels)),
                trainable=True,
            )
            self.res_bn = BatchNorm(out_channels)

    def forward(
        self,
        x: Tensor,
        adjacency: np.ndarray,
        training: bool,
        rng: np.random.Generator | None,
    ) -> Tensor:
        """Run the block as two nodes.

        Node A is the graph convolution; it returns the raw channel mix.
        Node B, the temporal convolution, runs bn1 and ReLU on that mix as
        its prologue, normalizing over A's output array in place, which is
        safe because A's backward never reads its output. B writes the
        rectified result into a zero-bordered buffer that it convolves and
        drops; its backward builds the buffer again. B's epilogue is bn2,
        dropout, the residual add and ReLU; a projection shortcut
        (subsample, 1x1 convolution, res_bn) runs inside it too, so only
        res_bn's backward operand outlives the forward. Evaluation makes
        the same calls on the same weights, with no dropout and every
        batch norm on its running statistics, as a frozen layer in
        training; it records no graph, so each norm writes over its input
        in place.
        """
        with nullcontext() if training else ad.no_grad():
            h = ad.graph_conv(x, adjacency, self.gcn_weights, self.edge_masks)
            if self.residual == "project":
                shortcut = ad.Projection(x, self.res_weight, self.res_bn.norm(training),
                                         self.stride)
            else:
                shortcut = x if self.residual == "identity" else None
            return ad.temporal_conv(
                h, self.tcn_kernel, self.stride, prologue=self.bn1.norm(training),
                norm=self.bn2.norm(training),
                dropout=self.dropout if training else 0.0, rng=rng,
                shortcut=shortcut, relu=True,
            )

    def parameters(self) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = []
        for k, weight in enumerate(self.gcn_weights):
            named.append((f"gcn_weight.{k}", weight))
        for k, mask in enumerate(self.edge_masks):
            named.append((f"edge_mask.{k}", mask))
        named.extend((f"bn1.{n}", t) for n, t in self.bn1.parameters())
        named.append(("tcn_kernel", self.tcn_kernel))
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
    temporal kernel, then the projection weight if any), so a seed pins
    every initial value. The classifier bias starts at zero, edge masks at
    one, batch norm at identity. The convolutions have no bias: each feeds
    a batch norm, which would cancel it.

    The network keeps no graph: ``logits.backward(grad)`` runs the backward
    pass of a training forward, and the graph is freed when the caller
    drops ``logits``. An evaluation forward runs under ``autodiff.no_grad``
    and returns a leaf; its only difference from a training forward is no
    dropout and every batch norm on its running statistics.
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
        seed: int = 0,
    ):
        if num_classes < 2:
            raise ConfigurationError("num_classes: must be at least 2")
        plan = _check_network_options(
            in_channels, person_pool, dropout, zero_confidence, channel_plan, seed
        )

        self.layout = adjacency.layout
        self.vertex_count = adjacency.vertex_count
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.channel_plan = plan
        self.person_pool = person_pool
        self.zero_confidence = zero_confidence
        self.mode = "vanilla"

        self.adjacency = adjacency.matrices

        rng = np.random.default_rng(seed)
        self.input_bn = BatchNorm(self.vertex_count * in_channels)
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
        # An evaluation forward records nothing, so nothing outlives it
        # but the logits.
        with nullcontext() if training else ad.no_grad():
            # Normalize per joint-channel pair over the batch and time. The
            # input is a constant, so it is rearranged outside the graph.
            h = Tensor(x.transpose(3, 1, 0, 4, 2).reshape(
                vertices * channels, samples * slots, frames, 1))
            h = ad.batch_norm(h, self.input_bn.norm(training))
            # Channels first from here to the pooling: (C, N·M, T, V).
            h = ad.reshape(h, (vertices, channels, samples * slots, frames))
            h = ad.transpose(h, (1, 2, 3, 0))
            for block in self.blocks:
                h = block.forward(h, self.adjacency, training, rng)
            h = ad.mean(h, axes=(2, 3))
            h = ad.reshape(h, (self.channel_plan[-1][0], samples, slots))
            if self.person_pool == "mean":
                h = ad.mean(h, axes=(2,))
            else:
                h = ad.reduce_sum(h, axes=(2,))
            h = ad.transpose(h, (1, 0))
            return ad.add(ad.matmul_last(h, self.fc_weight), self.fc_bias)

    __call__ = forward

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

    def batch_norm_layers(self) -> list[tuple[str, BatchNorm]]:
        layers = [("input_bn", self.input_bn)]
        for index, block in enumerate(self.blocks):
            for suffix, bn in block.batch_norms():
                layers.append((f"blocks.{index}.{suffix}", bn))
        return layers

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
        """Copy values into the network's arrays, matched by name.

        Names and shapes must be ones ``state_arrays`` returns; a checkpoint
        goes through ``load_weights``, which checks them.
        """
        named = self.named_parameters()
        norms = dict(self.batch_norm_layers())
        for name, value in arrays.items():
            if name in named:
                named[name].data[...] = value
            else:
                layer_name, _, stat = name.rpartition(".")
                setattr(norms[layer_name], stat, np.array(value, dtype=np.float64))

    def meta(self) -> dict:
        return {
            "layout": self.layout,
            "vertex_count": self.vertex_count,
            "partition_count": len(self.adjacency),
            "num_classes": self.num_classes,
            "in_channels": self.in_channels,
            "channel_plan": [list(pair) for pair in self.channel_plan],
            "person_pool": self.person_pool,
            "zero_confidence": self.zero_confidence,
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
    check_mode(mode)
    if mode in ("vanilla", "propagation"):
        prefixes: tuple[str, ...] | None = None
    elif mode == "fine_tune":
        prefixes = (f"blocks.{len(net.blocks) - 1}.", "fc.")
    else:
        prefixes = ("fc.",)
    for name, tensor in net.named_parameters().items():
        tensor.trainable = prefixes is None or name.startswith(prefixes)
    net.mode = mode


def save_weights(net: StgcnNetwork, path: str | Path) -> None:
    """Write all persistent arrays to a flat binary checkpoint.

    The format is a magic string, a little-endian uint64 header length, a
    JSON header (sorted keys, no indentation) describing the arrays and
    the network structure, then the raw float64 buffers in header order.
    Identical state produces identical bytes, and the file is replaced
    whole (``atomic.open_atomic``).
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
    with open_atomic(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<Q", len(blob)))
        handle.write(blob)
        for buffer in buffers:
            handle.write(buffer)


def _entry_layout(path, index: int, entry, offset: int) -> tuple[str, tuple[int, ...]]:
    """The name and shape of header entry ``index``, which must start at ``offset``."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise CheckpointError(f"{path}: array entry {index} has no string name")
    name, shape, start = entry["name"], entry.get("shape"), entry.get("offset")
    # JSON booleans parse as bool, a subclass of int; neither is a size.
    if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
        raise CheckpointError(
            f"{path}: array {name!r} has shape {shape!r}, not a list of sizes"
        )
    if type(start) is not int or start != offset:
        raise CheckpointError(
            f"{path}: array {name!r} has offset {start!r}, expected {offset}"
        )
    return name, tuple(shape)


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint's metadata and arrays without needing a network.

    The header's array entries must tile the payload as ``save_weights``
    writes it: unique names, each array starting where the one before
    ends, the first at 0 and the last ending with the file. A format-1
    file's conv biases come back folded (``FORMAT_1_BIASES``).
    """
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
        header = json.loads(raw[header_start:payload_start].decode("utf-8"),
                            object_pairs_hook=unique_keys)
    except ValueError as exc:  # bad UTF-8, bad JSON syntax or a repeated key
        raise CheckpointError(f"{path} has a corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path} has a corrupt header: not an object")
    fmt = header.get("format")
    if type(fmt) is not int or fmt not in (1, CHECKPOINT_FORMAT):
        raise CheckpointError(
            f"{path} uses checkpoint format {fmt!r}, expected 1 or {CHECKPOINT_FORMAT}"
        )
    entries, meta = header.get("arrays", []), header.get("meta", {})
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise CheckpointError(
            f"{path} has a corrupt header: arrays must be a list, meta an object"
        )
    payload_size = len(raw) - payload_start
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for index, entry in enumerate(entries):
        name, shape = _entry_layout(path, index, entry, end)
        if name in arrays:
            raise CheckpointError(f"{path}: array {name!r} appears twice")
        count = math.prod(shape)
        if end + 8 * count > payload_size:
            raise CheckpointError(f"{path} is truncated within array {name!r}")
        arrays[name] = np.frombuffer(
            raw, dtype=np.float64, count=count, offset=payload_start + end
        ).reshape(shape).copy()
        end += 8 * count
    if end != payload_size:
        raise CheckpointError(
            f"{path} has {payload_size - end} bytes after its last array"
        )
    if fmt == 1:
        for name in [n for n in arrays if n.rpartition(".")[2] in FORMAT_1_BIASES]:
            block, _, kind = name.rpartition(".")
            mean = f"{block}.{FORMAT_1_BIASES[kind]}.running_mean"
            if mean not in arrays or arrays[mean].shape != arrays[name].shape:
                raise CheckpointError(f"{path}: {name} has no {mean} of its shape")
            arrays[mean] = arrays[mean] - arrays.pop(name)
    return meta, arrays


def load_weights(
    net: StgcnNetwork, path: str | Path, strict_head: bool = True
) -> list[str]:
    """Load a checkpoint into a network, matching arrays by name.

    The checkpoint's ``meta`` must equal the network's in every key but
    ``num_classes``: a channel plan, person pool or ``zero_confidence`` that
    differs changes the logits without changing a single array shape. A
    checkpoint from before ``zero_confidence`` was recorded reads as false.
    Every array must exist on both sides with an equal shape, except that
    with ``strict_head`` off the classifier head may disagree in shape and
    is then left at its current values (the transfer-learning entry point).
    Returns the names of skipped arrays.
    """
    meta, arrays = read_checkpoint(path)
    meta.setdefault("zero_confidence", False)
    for key, expected in net.meta().items():
        if key != "num_classes" and meta.get(key) != expected:
            raise CheckpointError(
                f"{path}: checkpoint {key} is {meta.get(key)!r}, "
                f"network {key} is {expected!r}"
            )
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
    channel_plan: tuple[tuple[int, int], ...] | None = None
    seed: int = 0

    def validate(self) -> None:
        check_layout(self.layout, "model.layout")
        if self.person_slots < 1:
            raise ConfigurationError("model.person_slots: must be at least 1")
        if self.target_frames < 1:
            raise ConfigurationError("model.target_frames: must be at least 1")
        _check_network_options(
            self.in_channels, self.person_pool, self.dropout,
            self.zero_confidence, self.channel_plan, self.seed, prefix="model.",
        )

    def build(self, num_classes: int) -> StgcnNetwork:
        """Build the network of an already validated config."""
        adjacency = partition_spatial(build_graph(self.layout))
        return StgcnNetwork(
            adjacency,
            num_classes,
            in_channels=self.in_channels,
            channel_plan=self.channel_plan,
            person_pool=self.person_pool,
            zero_confidence=self.zero_confidence,
            dropout=self.dropout,
            seed=self.seed,
        )
