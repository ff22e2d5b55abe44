import copy
import dataclasses
import pickle

import numpy as np
import pytest

from tensorconc import SparseTensor, TensorShape
from tensorconc.core import _Frozen

# Every way a value leaves its process or is duplicated: pickle protocols 2 to 5
# (as a worker process receives it), a shallow copy and a deep copy.
COPIERS = {
    **{f"pickle{p}": (lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))) for p in range(2, 6)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def random_sparse(rng: np.random.Generator, k: int, n: int, density: float = 0.4,
                  values: str = "int") -> SparseTensor:
    """Random small tensor for oracle comparisons (dense-backed)."""
    shape = TensorShape(k, n)
    dense = np.zeros((n,) * k)
    mask = rng.random(dense.shape) < density
    if values == "int":
        dense[mask] = rng.integers(-4, 5, size=int(mask.sum()))
    elif values == "binary":
        dense[mask] = 1.0
    else:
        dense[mask] = rng.standard_normal(int(mask.sum()))
    return SparseTensor.from_dense(dense)


def _names(value) -> tuple:
    """The slot or field names of an array holder or a dataclass; () for anything else."""
    if isinstance(value, _Frozen):
        return type(value).__slots__
    if dataclasses.is_dataclass(value):
        return tuple(f.name for f in dataclasses.fields(value))
    return ()


def _held(value, path="") -> list:
    """(path, leaf) for every slot, field and tuple item of ``value``, down to
    its arrays and plain values."""
    if isinstance(value, tuple):
        return [leaf for i, v in enumerate(value) for leaf in _held(v, f"{path}[{i}]")]
    if not _names(value):
        return [(path, value)]
    return [leaf for name in _names(value) for leaf in _held(getattr(value, name), f"{path}.{name}")]


def assert_equal_copy(value, copied, by_eq: bool = True):
    """``copied`` holds what ``value`` holds, array by array (dtype and bits),
    with every array read-only, equals it by ``==`` where its type defines
    that (unless ``by_eq`` is False: a result's ``==`` compares its witness
    by identity), and still refuses to rebind a slot or field."""
    want, got = _held(value), _held(copied)
    assert [path for path, _ in got] == [path for path, _ in want]
    for (path, a), (_, b) in zip(want, got):
        if isinstance(a, np.ndarray):
            assert b.dtype == a.dtype and b.shape == a.shape and b.tobytes() == a.tobytes(), path
            assert not b.flags.writeable, path
        else:
            assert type(b) is type(a) and b == a, path
    if by_eq and type(value).__eq__ is not object.__eq__:
        assert copied == value
    for name in _names(copied):
        with pytest.raises(AttributeError):
            setattr(copied, name, None)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
