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
    "concentration": ("b834f8990b5e59dd61bbe4daa6f7695682f853741a968fb3f35ac823db658340",
                      "7ef41dcbc5fe2ebaf3a6004207dfb237e18a803c5b804c7b02188eb507519b18"),
    "chain-k3-m1": ("bb68d5a678ee8fed0365b9fa7d1d4244045582c07a0b4ac8a593ec0875fd4645",
                    "8ce566b39d84526faa2462c7469de6b2979a1cdcb0231c96c2033c0db5b23e41"),
    "chain-k5-m2": ("755258891ed787ec765ea4ee241b78dad9a667304e1822b154bd47ecaf5686e3",
                    "02375fe84a5f4e5d4262f869abb8e31cef2e829117b87ed819ef3b8fd760594d"),
    "k2": ("f6b9599da8273ab6f2abac569058f4180a99316a725724496ebad563454e44e0",
           "c26b9f3227739240cfa0ebf4907e9e56d1884de2a5cd9039338fe41ec7836893"),
    "partition": ("00a9cc4c8f0cdc748f876bdd0c7beba134380ba5e2960c1fc4a149c9986dcd98",
                  "7ef41dcbc5fe2ebaf3a6004207dfb237e18a803c5b804c7b02188eb507519b18"),
    "regularize": ("f9fcb6e310fd6a384688fe5a25d56f3c7331b375168cb8c8b3183719cc7f424c",
                   "3e64c5aac91b3a6614f1e322954634102ca61df0e4dfc39bb5900464cdf13019"),
    "regularize-chain": ("e03eb0b86effae9b642b73519a16c36a65c4e8cff1d8f2c7845978771b9cdfc3",
                         "0ac1c00986c3baeab90ebf0deafd964e7e1b387cb4b9ae544a0e964f0ce1151a"),
    "expander": ("7010eac92d5836923e460012ca63baad4a326f5424d0a8842867e32ac8c66b2b",
                 "1d55d07a3e33620f9a3146d2dec74d33c4018ac59cee037babcd9eb4eba3e451"),
    "sparsify": ("23309b44b8032634b8bdaf39b21c054d7df1186f5407e2d8501d4fbd4b2d7c0a",
                 "42f5457be1940c0506e4c1c4a6c27ba47245add4dc08b565f4fd60350cdb81a2"),
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
