import numpy as np
import pytest

from wconv.errors import FormatError
from wconv.tensors import tensor_decode, tensor_encode, tensor_read, tensor_write


class TestTensorFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((2, 1, 8, 8))
        path = tmp_path / "t.wct"
        tensor_write(t, path)
        back = tensor_read(path)
        assert back.shape == t.shape
        assert back.tobytes() == t.tobytes()

    def test_many_random_round_trips(self):
        # shapes drawn small on purpose; the point is the byte identity of
        # the codec that tensor_write and tensor_read call, run in memory
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            rank = int(rng.integers(1, 5))
            shape = tuple(int(rng.integers(1, 4)) for _ in range(rank))
            t = rng.standard_normal(shape)
            back = tensor_decode(tensor_encode(t))
            assert back.shape == t.shape and back.tobytes() == t.tobytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.wct"
        path.write_bytes(b"NOPE" + bytes([1]) + (4).to_bytes(4, "little") + b"\0" * 32)
        with pytest.raises(FormatError):
            tensor_read(path)

    def test_declared_size_mismatch(self, tmp_path):
        path = tmp_path / "short.wct"
        tensor_write(np.ones(4), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            tensor_read(path)

    def test_unsupported_rank(self, tmp_path):
        path = tmp_path / "rank.wct"
        path.write_bytes(b"WCT1" + bytes([5]) + b"\0" * 40)
        with pytest.raises(FormatError):
            tensor_read(path)

    def test_non_finite_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tensor_write(np.array([1.0, np.nan]), tmp_path / "nan.wct")
