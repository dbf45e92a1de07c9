"""Output files are replaced whole: a failed write leaves the old file."""
import errno
import os
import stat

import pytest

from skelact import (
    DatasetManifest,
    ManifestRecord,
    ModelConfig,
    ProtocolSplit,
    StgcnNetwork,
    atomic,
    save_split,
    save_weights,
)
from helpers import path_graph


class HalfWrites:
    """A file whose every write stores half its data, then fails as if the
    disk were full."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, data):
        self.handle.write(data[:len(data) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


def write_checkpoint(directory, seed):
    net = StgcnNetwork(path_graph(5), 3,
                       ModelConfig(channel_plan=((4, 1),), seed=seed))
    save_weights(net, directory / "net.ckpt")


def write_split(directory, seed):
    split = ProtocolSplit(protocol="custom", seed=seed, class_names=("a", "b"),
                          train_ids=(f"t{seed}", "u"), test_ids=(f"v{seed}",))
    records = [ManifestRecord(sample_id, name, "child", "/data", (640, 480))
               for sample_id, name in ((f"t{seed}", "a"), ("u", "b"), (f"v{seed}", "a"))]
    save_split(split, directory, DatasetManifest(records, ["a", "b"]))


@pytest.mark.parametrize("write", [write_checkpoint, write_split])
def test_a_write_failing_midway_keeps_the_old_file_and_leaves_no_temp_file(
        write, tmp_path, monkeypatch):
    write(tmp_path, seed=1)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def failing_open(*args, **kwargs):
        return HalfWrites(open(*args, **kwargs))

    monkeypatch.setattr(atomic, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        write(tmp_path, seed=2)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_open_atomic_replaces_the_file_with_ordinary_permissions(tmp_path):
    target = tmp_path / "out.csv"
    plain = tmp_path / "plain.csv"
    target.write_text("old\n")
    plain.write_text("plain\n")
    with atomic.open_atomic(target, "w", newline="") as handle:
        handle.write("a,b\r\n")
    assert target.read_bytes() == b"a,b\r\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "plain.csv"]
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
