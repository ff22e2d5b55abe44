"""Golden output bytes: one small sweep per command, pinned by sha256.

Each case pins the digest of the results CSV with its wall_ms column masked,
and of the summary JSON; ``DENSE_DIGEST`` pins the probability-table path,
which no command runs, and ``SCALED_DIGEST`` the solvers on weighted tensors
scaled by a power of two, which no other golden reaches.  A change that moves
any estimate by one ulp, or reorders an aux key, changes a digest.  When such
a change is intended, print the new digests with ``PYTHONPATH=src python
tests/test_golden.py`` and say why they moved.  The library imports numpy alone, so the bytes
depend on the numpy build: they were recorded with numpy 2.4 on x86-64, and
whether they hold on other hosts is unchecked.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tensorconc import (DenseProbability, OffsetTensor, PowerIterConfig, SeedSpec, SparseTensor,
                        TensorShape, balanced_partition, bernoulli_sample, center, hopm_lower,
                        matrix_op_norm, slice_lower, spectral_sandwich, unfold)
from tensorconc.harness import config_from_dict, run

BASE = {
    "k": 3, "n_list": [8], "m": 2, "p_rule": {"kind": "fixed", "p": 0.3},
    "trials": 2, "base_seed": 5, "estimator": {"restarts": 3},
}
CASES = {
    "concentration": {"command": "concentration"},
    "chain-k3-m1": {"command": "concentration", "m": 1},
    "chain-k5-m2": {"command": "concentration", "k": 5, "n_list": [4]},
    # the chain's {1,2 | 3,4} split: the first with s = 2 multiway blocks on the left
    "chain-k4-m1": {"command": "concentration", "k": 4, "m": 1, "n_list": [6]},
    "k2": {"command": "concentration", "k": 2, "m": 1, "n_list": [10]},
    "regularize": {"command": "regularize", "k": 4, "n_list": [6],
                   "p_rule": {"kind": "c_over_nm", "c": 3.0, "m": 2}},
    "regularize-chain": {"command": "regularize", "m": 1,
                         "p_rule": {"kind": "c_over_nm", "c": 2.0, "m": 1}},
    "expander": {"command": "expander", "n_list": [12],
                 "p_rule": {"kind": "c_over_nm", "c": 6.0, "m": 2},
                 "params": {"mixing_families": 50}},
    "sparsify": {"command": "sparsify"},
    "diagnostics": {"command": "diagnostics", "n_list": [20], "m": 1,
                    "p_rule": {"kind": "c_logn_over_nm", "c": 5.0, "m": 1},
                    "params": {"families": 100}},
    # workload scale: n^k spans many hash blocks, and HOPM runs long
    "conc-n120": {"command": "concentration", "n_list": [120], "trials": 1,
                  "p_rule": {"kind": "c_logn_over_nm", "c": 5.0, "m": 2},
                  "estimator": {"restarts": 2}},
    "diag-n100": {"command": "diagnostics", "m": 1, "n_list": [100],
                  "p_rule": {"kind": "c_logn_over_nm", "c": 5.0, "m": 1},
                  "params": {"families": 100}},
    # the expander's mixing check on the bit-packed path at n = 120
    "expander-n120": {"command": "expander", "n_list": [120], "trials": 1,
                      "p_rule": {"kind": "c_over_nm", "c": 40.0, "m": 2},
                      "params": {"mixing_families": 2000}, "estimator": {"restarts": 2}},
}
DIGESTS = {
    "concentration": ("635c1f6ce99f32ded79637abd2c9a0808e156f45ae16131f38e71150f8a4243c",
                      "06cb040dae4f38486fa68dffaa75385257e8fda61eb27eb48792bf44d13e6028"),
    "chain-k3-m1": ("60aceb2a6c1edf87e08a85460ab7acb85542bd19850462c55b5c5389727994be",
                    "4158e1af117afb1205db325cb9d4e55d4c09210986923ce2a645f5f0a9ac0028"),
    "chain-k5-m2": ("a303ed7283cfafd397a6ec502f71d30215bf5e952125a51055c33e08d5c9f5f5",
                    "a4b1ace3bb4475b68aa35c8f46ffaf34cc5adf9ecb59a275595c96f7a61cfed7"),
    "chain-k4-m1": ("0fd4e532cf7f44e079fa29ff63cb0518685068567386878093840ed7774fc89e",
                    "f6ae75185dc53d596be0f22721021eb1690a77e84959313461440a6cf1517d71"),
    "k2": ("3addbc9a5365d5b6098f168e87d8d958e1e825923e1dd74a0a5e2fb2715a8226",
           "157a32bba8ce3be12d7d496ee79315a228c8c50c9b071e1e66b2fd65c487c4d1"),
    "regularize": ("c9473588fa67ad5cdcb6875aae25038372453a820d7ab400ada24e3d7f51f3b3",
                   "24eb9030b17fb9ab88719d7ee0a35ee6e42b6a93daf6149563604b47bc2c1b3f"),
    "regularize-chain": ("a780571cfcbf38934952f3bc3c684a8007c5fd87513cf8cbc94446b01ea306b1",
                         "4954bbef35e9058b0aba26b17d8c5093223245426834fa293b694376d409b060"),
    "expander": ("2724b8aeed7b0b1ebcae866763e4ead81119f6ce1c432051e85da498eaa8fbe0",
                 "4e96b1595d058b8e6af670cc0a8760b3524865a60fbd121044a69073af40cd70"),
    "sparsify": ("c2cf0453cabb9c73baa15d4c869cdc009b093aac413eefc136fb5515fb014d6e",
                 "cbc3bc5a0f8c4a939da4ddb196d81839c4f7afe13e95dfa83dca5d05f2500767"),
    "diagnostics": ("7402f4626dd71608a902cd2e625514ca165414aba7939e207bd2a523db23c976",
                    "01f8f655f05cae4b3701873d2e1346ffb92f4c1e4203d2f464f4a9a133e1bb11"),
    "conc-n120": ("691278e17ae404e9f38af5cf41fee9303c65d14bae08a8ea36cd8aea724c1298",
                  "23c090a34a797b31b6b3f6eba0183c06e6963250fb45c1bd78598065c0224315"),
    "diag-n100": ("b99b4769daac951eef7fe25c4c314145a4084bc63545613d586d47b1d95c4cf6",
                  "012f152fc03c9df12358a9d476704a793359df8591ffd98a288ab9d7c89ab626"),
    "expander-n120": ("11ce74b4a30a847e15a97a74394acbc6c98d1515fd1b4d6393e6d0dab398750e",
                      "a1fe27fb5a39e6a8ed2882f4f4bd61271a4d2bbbe4c1512b8b1b08a391812ce7"),
}


def digests(case: str, outdir: Path) -> tuple:
    """(sha256 of the CSV with wall_ms masked, sha256 of the summary JSON)."""
    out = outdir / f"{case}.csv"
    run(config_from_dict({**BASE, **CASES[case], "out": str(out)}))
    lines = out.read_bytes().split(b"\n")
    masked = b"\n".join(line.rsplit(b",", 1)[0] for line in lines)
    summary = Path(f"{out}.summary.json").read_bytes()
    return hashlib.sha256(masked).hexdigest(), hashlib.sha256(summary).hexdigest()


@pytest.mark.filterwarnings("ignore:regularization with m=1 < k/2")
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes(case, tmp_path):
    assert digests(case, tmp_path) == DIGESTS[case]


# A table's centering is the one input with a stored entry at every
# coordinate: only here do the Gram products and the Cholesky certificate see
# dense unfoldings.
DENSE_DIGEST = "5878a8f0754d3533a930f9e0c5b0bf479b9fdc00235f7310609489a60547ffeb"


def dense_digest() -> str:
    """sha256 of two k = 3, n = 12 samples of a two-block table (0.4 on the
    first n/2 mode-1 indices, 0.1 elsewhere), their centerings and their
    m = 2 sandwiches."""
    n = 12
    table = np.full((n,) * 3, 0.1)
    table[: n // 2] = 0.4
    model = DenseProbability(table)
    h = hashlib.sha256()
    for trial in range(2):
        seed = SeedSpec(7, trial)
        t = bernoulli_sample(TensorShape(3, n), model, seed)
        w = center(t, model)
        est = spectral_sandwich(w, 2, PowerIterConfig(restarts=3, seed=seed))
        for a in (t.coords, t.values, w.sparse.coords, w.sparse.values):
            h.update(a.tobytes())
        h.update(repr((w.background, est.lower, est.upper, sorted(est.bounds.items()))).encode())
    return h.hexdigest()


def test_dense_model_bytes():
    assert dense_digest() == DENSE_DIGEST


# Weighted tensors, at 1 and at extreme scales: every solver here scales its
# input by a power of two other than 1 (2^-1 at scale 1).
SCALED_DIGEST = "7ef9deba73d1d030601ee9980264833f8fc7b51f6ac7a9b8532784390b7a6764"


def scaled_digest() -> str:
    """sha256 of the sandwich, the balanced unfolding's norm, HOPM and (k >= 3)
    the slice bound of four weighted tensors with background -0.3, a quarter of
    the n^k coordinates stored with values 0.37 * {-7..7} (0 replaced by 1.5),
    each at scales 1, 1e160 and 3e-170."""
    h = hashlib.sha256()
    for k, n, m in [(3, 9, 2), (3, 9, 1), (4, 5, 2), (2, 12, 1)]:
        rng = np.random.default_rng(7)
        lin = rng.choice(n**k, n**k // 4, replace=False)
        coords = np.stack(np.unravel_index(lin, (n,) * k), axis=1) + 1
        values = 0.37 * rng.integers(-7, 8, size=len(lin))
        values[values == 0.0] = 1.5
        config = PowerIterConfig(restarts=3, seed=SeedSpec(5, k))
        for scale in (1.0, 1e160, 3e-170):
            t = OffsetTensor(SparseTensor(TensorShape(k, n), coords, values * scale), -0.3 * scale)
            est = spectral_sandwich(t, m, config)
            norm = matrix_op_norm(unfold(t, balanced_partition(k, m)))
            hopm = hopm_lower(t, config)
            h.update(repr((est.lower, est.upper, sorted(est.bounds.items()), est.iterations_used,
                           norm.value, norm.iterations, hopm.value, hopm.iterations)).encode())
            witnesses = [est.lower_witness]
            if k >= 3:
                sl = slice_lower(t)
                h.update(repr(sl.value).encode())
                witnesses.append(sl.witness)
            for w in witnesses:
                for x in w:
                    h.update(x.tobytes())
    return h.hexdigest()


def test_scaled_path_bytes():
    assert scaled_digest() == SCALED_DIGEST


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            print(f"    {case!r}: {digests(case, Path(tmp))!r},")
    print(f"DENSE_DIGEST = {dense_digest()!r}")
    print(f"SCALED_DIGEST = {scaled_digest()!r}")
