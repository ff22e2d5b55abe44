"""Golden output bytes: one tiny sweep per command, pinned by sha256.

Each case pins the digest of the results CSV with its wall_ms column masked,
and of the summary JSON.  A change that moves any estimate by one ulp, or
reorders an aux key, changes a digest.  When such a change is intended,
print the new digests with ``PYTHONPATH=src python tests/test_golden.py``
and say why they moved.  They were recorded with numpy 2.4 and scipy 1.17
on x86-64; whether they hold on other hosts is unchecked.
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
}
DIGESTS = {
    "concentration": ("57582d47607b918e4a29462568064788434e99f85e597cb4aa3cfb196e875b01",
                      "daa38c4af6b24d31332242ab87fe167b86678588a0d8b6c5d9c6a14ce50648be"),
    "chain-k3-m1": ("3fb43fdc0da9088bc5dac468c0bfe73baa50fbbb21a912ce89dfc5b28ea389f9",
                    "703740524584f6bb613895b6f9776770b715a7ec8d7dfc82895a0cfab07f3ec1"),
    "chain-k5-m2": ("f6356f77b9c35fc1039ecbdd8e62c42bd8581dfdfef65c8f27d61889683e944b",
                    "851ec73add61b8620730b0faecd1d3fc7ee8a3e585770e3ea5854d26763549b4"),
    "k2": ("ba29798240517b907baadcac21007a5308106aa59eefe4dd68c30213fdd721f7",
           "3b2904f027100a02e724fe4628fd197fda866f9451736deedef799eac23c3e9d"),
    "partition": ("7c6146c984ea719670bd2721f1070a2e8d15bc149436624e67948229331c1488",
                  "daa38c4af6b24d31332242ab87fe167b86678588a0d8b6c5d9c6a14ce50648be"),
    "regularize": ("bd8cc4d04f1a30d8d3c73dd8279732ae63b6bf0aad3028b7024932883e4cc2ae",
                   "988b43b6ae48b3acac66d07378362be7a15d2723e4aed3a57ee150f157b71290"),
    "regularize-chain": ("e1afa2761160899c39bf4958aa59193e0b7fe2f4f2289807c365a7e1a79aef09",
                         "781a0b830b4f10a0d31319b5c509b342414ee9dcaed5acdfac315f09de5e0755"),
    "expander": ("635df7e791ab51e65e12a3ceb6a5a1d8a934f2cdecd31759ff8426cdd0e213ea",
                 "360a8fe88819391c2eb9d0ba21ba998f471974d36c549d77089c570c269d1da9"),
    "sparsify": ("6e7fed6dcb3192cb8dbccbecd625d4a2461d3489db7081c14352657e74f27607",
                 "cbe28ced4dc9fc58b5a8f6562d6b36efcbf93b54308443f04df39818b8e66f89"),
    "diagnostics": ("7402f4626dd71608a902cd2e625514ca165414aba7939e207bd2a523db23c976",
                    "01f8f655f05cae4b3701873d2e1346ffb92f4c1e4203d2f464f4a9a133e1bb11"),
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
