"""Skeleton graph construction, hop distances, and spatial partitioning."""
from collections import deque

import numpy as np
import pytest

from skelact import (
    BODY25,
    BODY25_JOINT_NAMES,
    BODY25_NO_FEET,
    COCO18,
    COCO18_JOINT_NAMES,
    COCO18_MODIFIED,
    ConfigurationError,
    ConnectivityError,
    LayoutMismatchError,
    SkeletonGraph,
    build_graph,
    hop_distance,
    partition_spatial,
)
from helpers import path_graph, triangle_graph

LAYOUTS = (COCO18, COCO18_MODIFIED, BODY25, BODY25_NO_FEET)
EXPECTED_VERTICES = {COCO18: 18, COCO18_MODIFIED: 18, BODY25: 25, BODY25_NO_FEET: 19}


def bfs_hops(graph):
    """Breadth-first all-pairs hop distances, independent of the package."""
    n = graph.vertex_count
    neighbors = [[] for _ in range(n)]
    for i, j in graph.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    hops = np.full((n, n), -1, dtype=np.int64)
    for start in range(n):
        hops[start, start] = 0
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for other in neighbors[node]:
                if hops[start, other] < 0:
                    hops[start, other] = hops[start, node] + 1
                    queue.append(other)
    return hops


@pytest.mark.parametrize("layout", LAYOUTS)
def test_layout_vertex_counts(layout):
    graph = build_graph(layout)
    assert graph.vertex_count == EXPECTED_VERTICES[layout]
    assert graph.layout == layout
    assert graph.center == 1


@pytest.mark.parametrize("layout", LAYOUTS)
def test_layouts_are_trees(layout):
    # Connected with V-1 edges means acyclic.
    graph = build_graph(layout)
    assert len(set(graph.edges)) == graph.vertex_count - 1
    hop_distance(graph)


def test_named_limb_edges_exist():
    def has_edge(graph, names, a, b):
        adjacency = graph.adjacency()
        return adjacency[names.index(a), names.index(b)] == 1.0

    coco = build_graph(COCO18)
    for a, b in [
        ("nose", "neck"),
        ("neck", "right_shoulder"),
        ("right_shoulder", "right_elbow"),
        ("right_elbow", "right_wrist"),
        ("neck", "right_hip"),
        ("right_hip", "right_knee"),
        ("right_knee", "right_ankle"),
        ("nose", "right_eye"),
        ("right_eye", "right_ear"),
    ]:
        assert has_edge(coco, COCO18_JOINT_NAMES, a, b)

    body = build_graph(BODY25)
    for a, b in [
        ("neck", "mid_hip"),
        ("mid_hip", "right_hip"),
        ("mid_hip", "left_hip"),
        ("left_ankle", "left_big_toe"),
        ("left_ankle", "left_heel"),
        ("right_ankle", "right_heel"),
    ]:
        assert has_edge(body, BODY25_JOINT_NAMES, a, b)


def test_modified_layout_differs_in_exactly_two_edges():
    base = {tuple(sorted(e)) for e in build_graph(COCO18).edges}
    modified = {tuple(sorted(e)) for e in build_graph(COCO18_MODIFIED).edges}
    names = COCO18_JOINT_NAMES
    hips_to_neck = {
        (names.index("neck"), names.index("right_hip")),
        (names.index("neck"), names.index("left_hip")),
    }
    hips_to_shoulders = {
        (names.index("right_shoulder"), names.index("right_hip")),
        (names.index("left_shoulder"), names.index("left_hip")),
    }
    assert base - modified == hips_to_neck
    assert modified - base == hips_to_shoulders


@pytest.mark.parametrize(
    "graph",
    [build_graph(layout) for layout in LAYOUTS] + [path_graph(7, 3), triangle_graph()],
    ids=list(LAYOUTS) + ["path7", "triangle"],
)
def test_hop_distance_matches_bfs(graph):
    assert np.array_equal(hop_distance(graph), bfs_hops(graph))


def test_hop_distance_on_a_path():
    hops = hop_distance(path_graph(3))
    assert hops[0, 2] == 2
    assert np.array_equal(hops, hops.T)
    assert (np.diag(hops) == 0).all()


@pytest.mark.parametrize(
    "graph",
    [build_graph(layout) for layout in LAYOUTS] + [path_graph(6, 2), triangle_graph()],
    ids=list(LAYOUTS) + ["path6", "triangle"],
)
def test_partition_entries_match_per_pair_rule(graph):
    parts = partition_spatial(graph)
    n = graph.vertex_count
    assert isinstance(parts, np.ndarray)
    assert parts.shape == (3, n, n)

    linked = graph.adjacency() + np.eye(n)
    degree = linked.sum(axis=0)
    hops = hop_distance(graph)[:, graph.center]
    for v in range(n):
        for w in range(n):
            if linked[v, w] == 0.0:
                assert (parts[:, v, w] == 0.0).all()
                continue
            if hops[w] == hops[v]:
                expected_k = 0
            elif hops[w] < hops[v]:
                expected_k = 1
            else:
                expected_k = 2
            for k in range(3):
                expected = 1.0 / degree[w] if k == expected_k else 0.0
                assert parts[k, v, w] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_partition_column_sums_and_exclusivity(layout):
    parts = partition_spatial(build_graph(layout))
    sums = parts.sum(axis=(0, 1))
    assert np.abs(sums - 1.0).max() < 1e-12
    # No entry may appear in two partitions.
    occupied = (parts != 0.0).sum(axis=0)
    assert occupied.max() <= 1


def test_single_vertex_graph_partitions():
    parts = partition_spatial(SkeletonGraph(1, (), 0))
    assert np.array_equal(parts[0], [[1.0]])
    assert np.array_equal(parts[1], [[0.0]])
    assert np.array_equal(parts[2], [[0.0]])


def test_triangle_puts_equal_hop_neighbors_in_the_root_partition():
    # Vertices 1 and 2 are both one hop from the center, so their link is
    # a root entry even off the diagonal. Every degree is 3.
    parts = partition_spatial(triangle_graph())
    third = 1.0 / 3.0
    root, centripetal, centrifugal = parts
    assert root[1, 2] == pytest.approx(third)
    assert root[2, 1] == pytest.approx(third)
    assert centripetal[1, 0] == pytest.approx(third)
    assert centripetal[2, 0] == pytest.approx(third)
    assert centrifugal[0, 1] == pytest.approx(third)
    assert centrifugal[0, 2] == pytest.approx(third)
    assert parts.sum(axis=(0, 1)) == pytest.approx(np.ones(3))


def test_partition_center_override():
    end = partition_spatial(path_graph(5, 0))
    # With the center at vertex 0 nothing is centripetal seen from 0.
    assert (end[1][:, 1:].sum(axis=0) > 0).any()
    assert end[2][0, 1] > 0.0
    assert np.abs(end.sum(axis=(0, 1)) - 1.0).max() < 1e-12
    middle = partition_spatial(path_graph(5, 2))
    assert not np.array_equal(middle, end)
    with pytest.raises(LayoutMismatchError):
        path_graph(5, 5)
    with pytest.raises(LayoutMismatchError):
        path_graph(5, -1)


def test_disconnected_graph_is_rejected():
    with pytest.raises(ConnectivityError):
        SkeletonGraph(4, ((0, 1), (2, 3)), 0)
    with pytest.raises(ConnectivityError):
        SkeletonGraph(2, (), 0)


def test_graph_validation_errors():
    with pytest.raises(LayoutMismatchError):
        SkeletonGraph(3, ((0, 0),), 0)
    with pytest.raises(LayoutMismatchError):
        SkeletonGraph(3, ((0, 5),), 0)
    with pytest.raises(LayoutMismatchError):
        SkeletonGraph(3, ((0, 1), (1, 2)), 3)
    with pytest.raises(LayoutMismatchError):
        SkeletonGraph(0, (), 0)
    with pytest.raises(ConfigurationError, match="layout: unknown skeleton layout"):
        build_graph("no_such_layout")


def test_adjacency_is_symmetric_without_self_links():
    adjacency = build_graph(BODY25).adjacency()
    assert np.array_equal(adjacency, adjacency.T)
    assert (np.diag(adjacency) == 0.0).all()
