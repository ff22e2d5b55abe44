"""Independent brute-force oracles for the test suite.

Everything here works on dense numpy arrays with plain nested loops (or an
independent classical algorithm), deliberately sharing no code path with the
library under test, except the reference compositions at the end.
"""

import functools
import itertools
import math

import numpy as np


def dense_inner(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    for idx in itertools.product(*(range(s) for s in a.shape)):
        total += a[idx] * b[idx]
    return total


def dense_form(t: np.ndarray, xs) -> float:
    total = 0.0
    for idx in itertools.product(*(range(s) for s in t.shape)):
        term = t[idx]
        for j, i in enumerate(idx):
            term *= xs[j][i]
        total += term
    return total


def dense_rank1(xs) -> np.ndarray:
    """The dense outer product x_1 (x) ... (x) x_k."""
    return functools.reduce(np.multiply.outer, xs)


def dense_degree_counts(t: np.ndarray, m: int) -> dict:
    """(k-m)-prefix -> number of nonzero entries (1-based prefixes)."""
    k = t.ndim
    out = {}
    for idx in itertools.product(*(range(s) for s in t.shape)):
        if t[idx] != 0:
            prefix = tuple(i + 1 for i in idx[: k - m])
            out[prefix] = out.get(prefix, 0) + 1
    return out


def dense_count_edges(t: np.ndarray, subsets) -> int:
    count = 0
    for tup in itertools.product(*subsets):
        if t[tuple(v - 1 for v in tup)] == 1:
            count += 1
    return count


def unrank_combination(rank: int, n: int, k: int) -> list:
    """The k-subset of [1, n] at a lexicographic rank, one member at a time."""
    out = []
    v = 1
    for j in range(1, k + 1):
        while math.comb(n - v, k - j) <= rank:
            rank -= math.comb(n - v, k - j)
            v += 1
        out.append(v)
        v += 1
    return out


def jacobi_spectral_norm(m: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60) -> float:
    """Largest singular value via cyclic Jacobi on the Gram matrix."""
    a = np.asarray(m, dtype=float)
    s = a.T @ a
    n = s.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(max((s**2).sum() - (np.diag(s) ** 2).sum(), 0.0))
        if off <= tol * max(np.abs(np.diag(s)).max(), 1e-300):
            break
        scale = max(np.abs(np.diag(s)).max(), 1e-300)
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(s[p, q]) <= 1e-30 * scale:
                    continue
                theta = (s[q, q] - s[p, p]) / (2.0 * s[p, q])
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c
                row_p = c * s[p, :] - sn * s[q, :]
                row_q = sn * s[p, :] + c * s[q, :]
                s[p, :], s[q, :] = row_p, row_q
                col_p = c * s[:, p] - sn * s[:, q]
                col_q = sn * s[:, p] + c * s[:, q]
                s[:, p], s[:, q] = col_p, col_q
    return float(np.sqrt(max(np.diag(s).max(), 0.0)))


def grid_rank1_max_2x2x2(t: np.ndarray, coarse: int = 720, refine_rounds: int = 4) -> float:
    """Spectral norm of a 2x2x2 tensor by angle-grid search with refinement.

    Unit vectors in R^2 are (cos a, sin a); the third vector is optimal in
    closed form (the normalized contraction), so the search is 2-d.
    """

    def evaluate(a1, a2):
        x1 = np.stack([np.cos(a1), np.sin(a1)], axis=-1)  # (G1, 2)
        x2 = np.stack([np.cos(a2), np.sin(a2)], axis=-1)  # (G2, 2)
        v = np.einsum("abc,ia,jb->ijc", t, x1, x2)
        return np.linalg.norm(v, axis=-1)

    g1 = np.linspace(0.0, np.pi, coarse, endpoint=False)
    g2 = np.linspace(0.0, 2 * np.pi, 2 * coarse, endpoint=False)
    vals = evaluate(g1, g2)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    best = (g1[i], g2[j])
    width = np.pi / coarse
    best_val = float(vals[i, j])
    for _ in range(refine_rounds):
        f1 = np.linspace(best[0] - width, best[0] + width, 61)
        f2 = np.linspace(best[1] - width, best[1] + width, 61)
        vals = evaluate(f1, f2)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = (f1[i], f2[j])
        best_val = max(best_val, float(vals[i, j]))
        width /= 20.0
    return best_val


def set_partitions(k: int):
    """All set partitions of [1..k] as lists of sorted blocks."""
    if k == 0:
        yield []
        return
    for rest in set_partitions(k - 1):
        for b in range(len(rest)):
            out = [list(blk) for blk in rest]
            out[b].append(k)
            yield out
        yield [list(blk) for blk in rest] + [[k]]


def dense_expander(t: np.ndarray, p: float) -> np.ndarray:
    """The three expander steps as loops over a dense adjacency array:
    increasing coordinates, first-vertex degree filter (ties kept), and the
    sum over all index permutations."""
    k, n = t.ndim, t.shape[0]
    upper = np.zeros_like(t)
    for idx in itertools.product(range(n), repeat=k):
        if all(a < b for a, b in zip(idx, idx[1:])):
            upper[idx] = t[idx]
    threshold = 2.0 * n ** (k - 1) * p
    for i in range(n):
        if np.count_nonzero(upper[i]) > threshold:
            upper[i] = 0.0
    out = np.zeros_like(t)
    for idx in itertools.product(range(n), repeat=k):
        if upper[idx] != 0:
            for perm in itertools.permutations(idx):
                out[perm] += upper[idx]
    return out


# Reference compositions: the slice bound and the HOPM seed built step by
# step, kept to check that the library's slice loop and mode-by-mode peel
# move no bit.  Unlike the oracles above, these reuse the library: each pair
# comes from ``spectral._top_pair`` and ``spectral._singular_pair`` from the
# uniform start, the route the library's slices and HOPM seed take.


def _reference_pair(mat, n, seed):
    """The top singular pair of the n-row matrix ``mat`` and whether it was
    solved at or below the dense cap (e_1, e_1 and True for a zero matrix)."""
    from tensorconc import spectral

    if mat.is_zero():
        return (np.eye(1, n)[0], np.eye(1, mat.dims[1])[0]), True
    _, vec, _, gram = spectral._top_pair(mat, 0, np.full(n, n**-0.5), seed)
    return spectral._singular_pair(mat, 0, vec), gram is not None


def reference_slice_lower(t, num_slices, seed, config):
    """Each slice as an ``OffsetTensor``, its pair from ``_reference_pair``,
    ranked by ``multilinear_form``."""
    from tensorconc import (OffsetTensor, SparseTensor, TensorShape, VectorTuple, multilinear_form,
                            rng, spectral)
    from tensorconc.core import as_offset
    from tensorconc.spectral import SliceResult

    t = as_offset(t)
    k, n = t.shape.order, t.shape.dim
    assignments = [np.ones(k - 2, dtype=np.int64)]
    if num_slices > 1:
        u = rng.uniforms(rng.stream_key(seed, rng.LBL_SLICE), range((num_slices - 1) * (k - 2)))
        assignments.extend(np.minimum(n, (u * n).astype(np.int64) + 1).reshape(num_slices - 1, k - 2))
    best_val, best, converged, seen = -1.0, None, True, set()
    for a in assignments:
        tup = tuple(int(x) for x in a)
        if tup in seen:
            continue
        seen.add(tup)
        mask = np.all(t.sparse.coords[:, 2:] == np.asarray(tup, dtype=np.int32), axis=1)
        piece = OffsetTensor(SparseTensor(TensorShape(2, n), t.sparse.coords[mask][:, :2],
                                          t.sparse.values[mask], presorted=True), t.background)
        pair, certified = _reference_pair(spectral._as_matrix(piece), n, config.seed)
        converged = converged and certified
        achieved = abs(multilinear_form(piece, list(pair)))
        if achieved > best_val:
            best_val, best = achieved, (pair, tup)
    pair, tup = best
    vecs = list(pair)
    for idx in tup:
        e = np.zeros(n)
        e[idx - 1] = 1.0
        vecs.append(e)
    return SliceResult(best_val, VectorTuple(vecs), converged)


def reference_fold_witness(t, config):
    """The HOPM seed from the left and right vectors of ``_reference_pair``
    on the {1 | 2..k} unfolding, the right one peeled mode by mode."""
    from tensorconc import balanced_partition, spectral, unfold

    k, n = t.shape.order, t.shape.dim
    (left, v), _ = _reference_pair(spectral._as_matrix(unfold(t, balanced_partition(k, k - 1))),
                                   n, config.seed)
    xs = [left]
    for _ in range(k - 2):
        mat = v.reshape(-1, n)
        _, x, _ = spectral._lanczos(lambda x: np.einsum("ij,i->j", mat, np.einsum("ij,j->i", mat, x)),
                                    np.full(n, n**-0.5), config.seed)
        xs.append(x)
        v = np.einsum("ij,j->i", mat, x)
    nv = spectral._norm(v)
    xs.append(v / nv if nv > 0 else np.full(n, n**-0.5))
    return xs


# Reference forms of code that now reuses a shared helper, kept to check that
# the reuse moved no bit and no accept/reject decision.


def reference_phi_array(partition, coords, n):
    """The unfolding map by an explicit strides loop: block member r's digit
    weighs n^pos(r), in uint64."""
    out = np.empty((coords.shape[0], partition.arity), dtype=np.int64)
    for j, block in enumerate(partition.blocks):
        cols = coords[:, [r - 1 for r in block]].astype(np.uint64) - np.uint64(1)
        strides = np.uint64(n) ** np.arange(len(block), dtype=np.uint64)
        out[:, j] = (cols * strides).sum(axis=1).astype(np.int64) + 1
    return out


def reference_chain_partition(k, m):
    """The m < k/2 chain's two-block partition as the multiway blocks (floor(k/m)
    consecutive blocks of size m, then one of size k mod m) merged on either
    side of their most balanced split, the first on ties."""
    from tensorconc import Partition

    blocks = [tuple(range(s, min(s + m, k + 1))) for s in range(1, k + 1, m)]
    split = min(range(1, len(blocks)), key=lambda s: abs(2 * sum(map(len, blocks[:s])) - k))
    return Partition([sum(blocks[:split], ()), sum(blocks[split:], ())])


def reference_validate_symmetric_adjacency(t):
    """Unit values on distinct-index coordinates in complete orbits: as the
    coordinates are unique, that is nnz == (distinct sorted rows) * k!."""
    if np.any(t.values != 1.0):
        raise ValueError("adjacency tensor has a value other than 1")
    srt = np.sort(t.coords, axis=1)
    if np.any(srt[:, :-1] == srt[:, 1:]):
        raise ValueError("adjacency tensor has an entry with repeated indices")
    if np.unique(srt, axis=0).shape[0] * math.factorial(t.shape.order) != t.nnz:
        raise ValueError("input tensor is not symmetric: incomplete permutation orbit")


def reference_hopm_lower(t, config, extra_inits=()):
    """HOPM one start at a time, each start's sweeps on 1-d vectors through
    ``_Contraction.all_but_one``: the loop the lockstep batch replaced."""
    from tensorconc import VectorTuple, rng, spectral
    from tensorconc.core import _Contraction, _vectors_of, as_offset

    t = as_offset(t)
    k, n = t.shape.order, t.shape.dim
    contraction = _Contraction.of(t)
    if contraction.is_zero():
        return spectral.HopmResult(0.0, VectorTuple.basis(k, n, [1] * k), 0, True)
    starts = [[np.full(n, n**-0.5) for _ in range(k)], spectral._fold_unfolding_witness(t, config)]
    for x in extra_inits:
        starts.append(list(_vectors_of(x, k, n)))
    key = rng.stream_key(config.seed, rng.LBL_HOPM_INIT)
    u = rng.uniforms(key, range(config.restarts * k * n)).reshape(config.restarts, k, n)
    for vs in 2.0 * u - 1.0:
        norms = [spectral._norm(v) for v in vs]
        starts.append([v / nv if nv > 0 else np.full(n, n**-0.5) for v, nv in zip(vs, norms)])
    best_val, best_xs, best_conv = -1.0, None, False
    total_iter = 0
    for xs in starts:
        xs = [x.copy() for x in xs]
        factors = [contraction.factor(j, x) for j, x in enumerate(xs)]
        prev = -np.inf
        hits = 0
        converged = False
        for _ in range(spectral._MAX_STEPS):
            total_iter += 1
            for j in range(k):
                v = contraction.all_but_one(factors, j)
                obj = spectral._norm(v)
                if obj == 0.0:
                    break
                xs[j] = v / obj
                factors[j] = contraction.factor(j, xs[j])
            if obj == 0.0:  # the form is 0 whatever the vector on mode j
                converged = True
                break
            if prev > -np.inf and abs(obj - prev) <= spectral._HOPM_TOL * max(obj, 1e-300):
                hits += 1
                if hits >= 2:
                    converged = True
                    break
            else:
                hits = 0
            prev = obj
        val = abs(contraction.form(factors))
        if val > best_val:
            best_val, best_xs, best_conv = val, xs, converged
    return spectral.HopmResult(best_val, VectorTuple(best_xs), total_iter, best_conv)
