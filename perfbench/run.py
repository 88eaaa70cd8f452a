"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a densecil checkout.

Pins the BLAS thread pools to one thread before numpy is imported and
imports ``densecil`` from the checkout's ``src`` directory only, so the
benchmark fails (exit code 2, no result) where the package sources are
missing.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bootstrap() -> None:
    """Pin thread pools and make the checkout's ``densecil`` importable."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = HERE.parent / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import densecil
    except ImportError as e:
        print(f"error: cannot import densecil from {src}: {e}", file=sys.stderr)
        sys.exit(2)
    if src not in Path(densecil.__file__).resolve().parents:
        print(f"error: densecil was imported from {densecil.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    bootstrap()
    from densebench import main
    sys.exit(main())
