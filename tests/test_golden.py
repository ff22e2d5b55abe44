"""Golden output bytes: one small sweep per command, pinned by sha256.

Each case pins the digest of the results CSV with its wall_ms column masked,
and of the summary JSON.  A change that moves any estimate by one ulp, or
reorders an aux key, changes a digest.  When such a change is intended,
print the new digests with ``PYTHONPATH=src python tests/test_golden.py``
and say why they moved.  The library imports numpy alone, so the bytes
depend on the numpy build: they were recorded with numpy 2.4 on x86-64, and
whether they hold on other hosts is unchecked.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

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
    "partition": {"command": "concentration", "partition": [[1, 3], [2]]},
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
    "chain-k3-m1": ("112a81f416bd8da580bdb0e9e3fa2fca021b5c5e05b4da04f4042482a4b19b6b",
                    "17a33ee4bafd45734730e03ca5d2e187e0195d344bc102b671aa35d5462658a2"),
    "chain-k5-m2": ("4a3891a1e1ecc7e65ac88be8e9720a40d6c852931ea68f36696d803a0f4c5522",
                    "e6dc48fd12ac4d11b5aa2a3f0793040b27f3df04043eae743b6f730831d928c1"),
    "chain-k4-m1": ("a49f5cbea3fbb61c09325fae4757fc8e39c08313b84ec5726639195dc186ae53",
                    "b80f6a38bdf1f1f63eb483ea9057eefa0cf112929ad7be47648c90d598957525"),
    "k2": ("3addbc9a5365d5b6098f168e87d8d958e1e825923e1dd74a0a5e2fb2715a8226",
           "157a32bba8ce3be12d7d496ee79315a228c8c50c9b071e1e66b2fd65c487c4d1"),
    "partition": ("13c2eb262b66271899dfcaa5700369cd85bcb39c4f777a7b8e33e6a8b9d2b962",
                  "06cb040dae4f38486fa68dffaa75385257e8fda61eb27eb48792bf44d13e6028"),
    "regularize": ("c9473588fa67ad5cdcb6875aae25038372453a820d7ab400ada24e3d7f51f3b3",
                   "24eb9030b17fb9ab88719d7ee0a35ee6e42b6a93daf6149563604b47bc2c1b3f"),
    "regularize-chain": ("08f35d98935dfd5076ee4dc6c215732031624b62354e21631bb7844e0932908b",
                         "5da21f09bbed75d13648dcf0cebbaed2cc6f70670f82792ddac2eff99bba85ff"),
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            print(f"    {case!r}: {digests(case, Path(tmp))!r},")
