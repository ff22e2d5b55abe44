"""Mode partitions and the induced tensor unfolding (matricization).

A partition pi = {B_1, ..., B_l} of the mode set [k] maps each coordinate
(i_1, ..., i_k) to an l-tuple through

    m_j = 1 + sum_{r in B_j} (i_r - 1) * n^{pos(r)},

where pos(r) is the rank of r within its (ascending) block: the first block
member is the least significant digit.  The map (``phi_array``) is a
bijection between [n]^k and the product of the unfolded ranges, so
unfolding permutes the entry list and preserves the Frobenius norm exactly,
while the spectral norm can only grow.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import OffsetTensor, TensorLike, _Frozen, _lex_order, as_offset, linear_index


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks of 1-based mode indices covering [k].

    Block order is significant (it fixes the unfolded mode order); members
    within a block are kept sorted ascending.  A member must be an integer
    (``operator.index``): 1.5 or "2" raises ``TypeError``.
    """

    blocks: Sequence[Sequence[int]]

    def __post_init__(self):
        clean = tuple(tuple(sorted(operator.index(i) for i in b)) for b in self.blocks)
        if not clean or any(len(b) == 0 for b in clean):
            raise ValueError("partition blocks must be nonempty")
        flat = [i for b in clean for i in b]
        if sorted(flat) != list(range(1, len(flat) + 1)):
            raise ValueError(f"blocks must partition [1..k], got {clean}")
        object.__setattr__(self, "blocks", clean)

    @property
    def order(self) -> int:
        return sum(map(len, self.blocks))

    @property
    def arity(self) -> int:
        return len(self.blocks)

    def dims(self, n: int) -> tuple:
        return tuple(n ** len(b) for b in self.blocks)

    def __repr__(self):
        return f"Partition({list(list(b) for b in self.blocks)})"


def balanced_partition(k: int, m: int) -> Partition:
    """Two blocks {1..k-m} and {k-m+1..k}; the second has size m."""
    if not 1 <= m <= k - 1:
        raise ValueError(f"m must be in [1, {k - 1}], got {m}")
    return Partition([range(1, k - m + 1), range(k - m + 1, k + 1)])


def phi_array(partition: Partition, coords: np.ndarray, n: int) -> np.ndarray:
    """The unfolding map over an (nnz, k) 1-based coordinate array; int64 output."""
    if max(partition.dims(n)) >= 2**63:
        raise ValueError(f"unfolded sides {partition.dims(n)} are not all below 2^63")
    out = np.empty((coords.shape[0], partition.arity), dtype=np.int64)
    for j, block in enumerate(partition.blocks):
        # the first block member is the least significant digit
        out[:, j] = linear_index(coords[:, [r - 1 for r in reversed(block)]], n).astype(np.int64) + 1
    return out


class UnfoldedView(_Frozen):
    """Unfolding of an OffsetTensor through a partition.

    Entry values and the background are untouched; only coordinates are
    remapped.  ``coords`` holds the unfolded coordinates in the source entry
    order (1-based, int64); ``canonical_entries`` re-sorts them into the
    unfolded lexicographic order.
    """

    __slots__ = ("source", "partition", "dims", "coords")

    def __init__(self, source: OffsetTensor, partition: Partition):
        if partition.order != source.shape.order:
            raise ValueError(
                f"partition of [{partition.order}] cannot unfold an order-"
                f"{source.shape.order} tensor"
            )
        self._set(source=source, partition=partition, dims=partition.dims(source.shape.dim),
                  coords=phi_array(partition, source.sparse.coords, source.shape.dim))

    @property
    def arity(self) -> int:
        return len(self.dims)

    @property
    def background(self) -> float:
        return self.source.background

    @property
    def values(self) -> np.ndarray:
        return self.source.sparse.values

    @property
    def nnz(self) -> int:
        return self.source.nnz

    def canonical_entries(self) -> tuple:
        """(coords, values) sorted lexicographically in unfolded coordinates."""
        order = _lex_order(self.coords)
        return self.coords[order], self.values[order]

    def __repr__(self):
        return f"UnfoldedView(dims={self.dims}, nnz={self.nnz}, background={self.background!r})"


def unfold(t: TensorLike, partition: Partition) -> UnfoldedView:
    """Unfold a tensor through a partition of its modes."""
    return UnfoldedView(as_offset(t), partition)
