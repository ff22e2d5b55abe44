"""The sparse regime at n in the thousands.

The paper's bounds are about growth in n: after regularization the spectral
norm of T - ET is O(sqrt(n^m p)) from p >= c / n^m on.  This runs one
``regularize`` trial (k = 3, m = 2, p = 2 / n^2, so about 2n entries) at
n = 1000 and n = 2000.  The sandwich's upper side solves the 1000 x 1000
or 2000 x 2000 Gram matrix of the {1 | 2,3} unfolding and certifies it
with one Cholesky factorization; the slices and the HOPM seed use the
same solver without a certificate.

The CLI equivalent of this script:

    tensorconc run --config large.json
"""

import pathlib
import tempfile

from tensorconc.harness import config_from_dict, run


def main() -> None:
    out = pathlib.Path(tempfile.mkdtemp(prefix="tensorconc-demo-")) / "large.csv"
    config = config_from_dict({
        "command": "regularize",
        "k": 3,
        "n_list": [1000, 2000],
        "m": 2,
        "p_rule": {"kind": "c_over_nm", "c": 2.0, "m": 2},
        "trials": 1,
        "base_seed": 1,
        "estimator": {"restarts": 6},
        "out": str(out),
    })
    print("    n     lower     upper  upper/sqrt(n^2 p)  upper certified  seconds")
    for rec in run(config):
        print(f"{rec.n:5d}  {rec.lower:8.4f}  {rec.upper:8.4f}  {rec.ratio_upper:17.4f}"
              f"  {str(rec.aux['upper_converged']):>15}  {rec.wall_ms / 1000:7.2f}")


if __name__ == "__main__":
    main()
