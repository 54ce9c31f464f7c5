import pytest

from logsift.files import atomic_write


def test_a_failed_write_leaves_the_target_and_no_temporary_file(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_write(str(target)) as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert target.read_text() == "old"


def test_a_completed_write_replaces_the_target(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    with atomic_write(str(target)) as fh:
        fh.write("new")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert target.read_text() == "new"


def test_a_failed_binary_write_leaves_the_target_and_no_temporary_file(tmp_path):
    target = tmp_path / "out.npy"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(str(target), "wb") as fh:
            fh.write(b"\x93NUMPY partial")
            raise RuntimeError("writer failed")
    assert [p.name for p in tmp_path.iterdir()] == ["out.npy"]
    assert target.read_bytes() == b"old"

