#!/usr/bin/env python3
"""Re-run acceptance criteria 6-8 with every learning rate moved in its last bits.

Usage, from the root of a checkout:

    python scripts/criteria_margin.py
    python scripts/criteria_margin.py --k 0 1 --criteria 6

For each k, ``embedkit.pipeline.warmup_lr`` is wrapped to return
lr * (1 + k * 2**-52), so every optimizer update moves in its last bits from
the first step on, as a kernel that rounds differently would move it; k = 0
is the tree as it is.  Under each k, the criteria's own test functions from
``tests/test_acceptance.py`` run with a fresh work directory, so their
set-up, seeds, data and bounds are exactly the suite's.  One line per
(k, criterion) gives PASS or FAIL and the criterion's own per-seed values,
and a summary counts the perturbations each criterion passed.

BLAS runs on one thread, as in the test suite.  One k takes about a minute
(criterion 6 about half of it), so this is not part of the tier-1 suite.
"""

import argparse
import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance  # noqa: E402  (needs the paths above)
from embedkit import pipeline  # noqa: E402

CRITERIA = {
    6: test_acceptance.test_criterion_6_toy_retrieval_convergence,
    7: test_acceptance.test_criterion_7_soft_mask_benefit,
    8: test_acceptance.test_criterion_8_clr_centroid_contraction,
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, nargs="+", default=[-2, -1, 0, 1, 2, 3],
                    help="learning-rate perturbations, in units of 2**-52")
    ap.add_argument("--criteria", type=int, nargs="+", default=sorted(CRITERIA),
                    choices=sorted(CRITERIA))
    return ap.parse_args(argv)


def run_criterion(num: int) -> tuple[bool, str]:
    """Run one criterion in a fresh work directory: (passed, its report's detail)."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory(prefix=f"margin-c{num}-") as work, \
            contextlib.redirect_stdout(out):
        try:
            CRITERIA[num](Path(work))
            passed = True
        except AssertionError:
            passed = False
    found = re.search(r"\[(.*)\]\s*$", out.getvalue().strip())
    return passed, found.group(1) if found else out.getvalue().strip()


def main(argv=None) -> int:
    args = parse_args(argv)
    base_lr = pipeline.warmup_lr
    passes = {num: 0 for num in args.criteria}
    try:
        for k in args.k:
            factor = 1.0 + k * 2.0 ** -52
            pipeline.warmup_lr = lambda *a, _f=factor: base_lr(*a) * _f
            for num in args.criteria:
                passed, detail = run_criterion(num)
                passes[num] += passed
                print(f"k={k:+d} criterion {num}: {'PASS' if passed else 'FAIL'} [{detail}]",
                      flush=True)
    finally:
        pipeline.warmup_lr = base_lr
    for num in args.criteria:
        print(f"criterion {num}: passed {passes[num]}/{len(args.k)} perturbations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
