"""Checkpoint files must round-trip named tensors bitwise."""

import numpy as np
import pytest

from simxfer.checkpoint import load_checkpoint, save_checkpoint
from simxfer.errors import DataError


def test_round_trip_is_bitwise(tmp_path, rng):
    tensors = {
        "enc.fw.w_input": rng.normal(size=(4, 3)) * 1e-7,
        "enc.fw.b_input": rng.normal(size=4) * 1e3,
        "wem.matrix": rng.normal(size=(5, 2)),
        "scalar_value": np.float64(0.1 + 0.2),
        "awkward": np.array([np.pi, -0.0, 1e-308, 1e308]),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        original = np.asarray(arr, dtype=np.float64)
        assert loaded[name].shape == original.shape
        assert np.array_equal(loaded[name].view(np.uint64), original.view(np.uint64))


def test_header_is_checked(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("something else\n")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_malformed_entry(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("simxfer-checkpoint 1\nname 2,2\nnot hex floats\n")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_negative_dimension_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    values = " ".join(float(v).hex() for v in range(5))
    path.write_text(f"simxfer-checkpoint 1\nw -1\n{values}\n")
    with pytest.raises(DataError):
        load_checkpoint(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_rejected(tmp_path, value):
    path = tmp_path / "bad.ckpt"
    path.write_text(f"simxfer-checkpoint 1\nw 2\n{float(1).hex()} {value}\n")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_duplicate_name_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    one, two = float(1).hex(), float(2).hex()
    path.write_text(f"simxfer-checkpoint 1\nx 1\n{one}\ny 1\n{one}\nx 1\n{two}\n")
    with pytest.raises(DataError, match="duplicate checkpoint entry 'x' at line 6"):
        load_checkpoint(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_non_utf8_file_is_a_data_error(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_bytes(b"simxfer-checkpoint 1\n\xff w 1\n0x1.0p+0\n")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_model_snapshot_round_trip(tmp_path):
    from synthetic import make_model

    model = make_model(kind="bilstm-avg", hidden=3, dim=3, bins=5, seed=9)
    snapshot = model.snapshot()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, snapshot)
    loaded = load_checkpoint(path)
    model.restore(loaded)
    for name, tensor in model.named_tensors().items():
        assert np.array_equal(tensor.values, snapshot[name])


def test_a_name_with_a_unicode_line_separator_round_trips(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"enc\u2028w": np.array([1.5, -2.0]), "b": np.zeros(1)})
    loaded = load_checkpoint(path)
    assert sorted(loaded) == ["b", "enc\u2028w"]
    assert loaded["enc\u2028w"].tolist() == [1.5, -2.0]
