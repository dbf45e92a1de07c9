"""Skeleton graphs and partitioned adjacency construction.

Every supported layout is an undirected tree over the estimator's joint
order. The adjacency used by the network is the degree-normalized
``(A + I) @ inv(D)`` split into three spatial partitions relative to a
center joint: same hop distance as the source (root), closer to the center
(centripetal), farther from it (centrifugal). ``partition_spatial`` returns
the three as one ``(3, V, V)`` array; the network calls it on the graph it
is given.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConnectivityError, LayoutMismatchError
from .keypoints import (
    BODY25,
    BODY25_NO_FEET,
    COCO18,
    COCO18_MODIFIED,
    layout_joint_count,
)

# Edges follow the estimator's published limb pairs, 0-indexed.
COCO18_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7),
    (1, 8), (8, 9), (9, 10), (1, 11), (11, 12), (12, 13),
    (0, 14), (0, 15), (14, 16), (15, 17),
)

# Variant of the 18-joint graph with the hip joints attached to the
# same-side shoulders instead of the neck.
COCO18_MODIFIED_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7),
    (2, 8), (8, 9), (9, 10), (5, 11), (11, 12), (12, 13),
    (0, 14), (0, 15), (14, 16), (15, 17),
)

BODY25_EDGES = (
    (0, 1), (0, 15), (0, 16), (15, 17), (16, 18),
    (1, 2), (2, 3), (3, 4),
    (1, 5), (5, 6), (6, 7),
    (1, 8), (8, 9), (9, 10), (10, 11), (8, 12), (12, 13), (13, 14),
    (14, 19), (19, 20), (14, 21),
    (11, 22), (22, 23), (11, 24),
)

BODY25_NO_FEET_EDGES = tuple(
    (i, j) for i, j in BODY25_EDGES
    if max(i, j) < layout_joint_count(BODY25_NO_FEET)
)

# The neck is joint 1 in every supported layout.
_CENTER = 1

_LAYOUT_EDGES = {
    COCO18: COCO18_EDGES,
    COCO18_MODIFIED: COCO18_MODIFIED_EDGES,
    BODY25: BODY25_EDGES,
    BODY25_NO_FEET: BODY25_NO_FEET_EDGES,
}


@dataclass(frozen=True)
class SkeletonGraph:
    """An undirected connected graph over skeleton joints."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    center: int
    layout: str = "custom"

    def __post_init__(self):
        if self.vertex_count < 1:
            raise LayoutMismatchError("graph needs at least one vertex")
        if not 0 <= self.center < self.vertex_count:
            raise LayoutMismatchError(
                f"center {self.center} outside [0, {self.vertex_count})"
            )
        object.__setattr__(
            self, "edges", tuple((int(i), int(j)) for i, j in self.edges)
        )
        for i, j in self.edges:
            if i == j:
                raise LayoutMismatchError(f"self loop at vertex {i}")
            if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
                raise LayoutMismatchError(f"edge ({i}, {j}) out of range")
        # Fails on disconnected graphs, which keeps the invariant at
        # construction time.
        hop_distance(self)

    def adjacency(self) -> np.ndarray:
        """Binary symmetric adjacency without self links."""
        a = np.zeros((self.vertex_count, self.vertex_count))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a


def build_graph(layout: str) -> SkeletonGraph:
    """Build the skeleton graph for one of the named layouts."""
    return SkeletonGraph(
        layout_joint_count(layout), _LAYOUT_EDGES[layout], _CENTER, layout
    )


def hop_distance(graph: SkeletonGraph) -> np.ndarray:
    """All-pairs hop distance matrix, computed from adjacency powers."""
    n = graph.vertex_count
    adjacency = graph.adjacency() + np.eye(n)
    hops = np.full((n, n), -1, dtype=np.int64)
    reach = np.eye(n, dtype=bool)
    power = np.eye(n)
    for distance in range(n):
        newly = (power > 0) & ~reach if distance else np.eye(n, dtype=bool)
        hops[newly] = distance
        reach |= newly
        power = power @ adjacency
    if bool((hops < 0).any()):
        raise ConnectivityError(
            f"graph {graph.layout!r} is not connected"
        )
    return hops


def partition_spatial(graph: SkeletonGraph) -> np.ndarray:
    """Split the normalized adjacency into the three spatial partitions,
    stacked ``(3, V, V)`` in that order.

    Normalization divides each column of ``A + I`` by its degree, so the
    partition stack sums to a column-stochastic matrix. Each nonzero entry
    lands in exactly one partition according to the hop distance of its
    endpoints from the center joint ``graph.center``; self links always
    land in the root partition.
    """
    n = graph.vertex_count
    linked = graph.adjacency() + np.eye(n)
    degree = linked.sum(axis=0)
    normalized = linked / degree[np.newaxis, :]

    center_hops = hop_distance(graph)[:, graph.center]
    source = center_hops[:, np.newaxis]
    target = center_hops[np.newaxis, :]
    return np.stack([
        normalized * (target == source),
        normalized * (target < source),
        normalized * (target > source),
    ])

