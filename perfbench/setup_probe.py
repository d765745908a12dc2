"""Time clawlab's set-up in a fresh process and print it as JSON.

Usage: python3 setup_probe.py <src-dir>

Set-up is the ``clawlab`` import plus the one-off lazy builds every
``clawlab run`` process pays before its first check: the mollifier
constants and the alpha_h (kernel CDF) interpolation table.  The
interpreter's own start-up is not included.  The reference kernel
(refkernel.py) is then timed in the same process, twice, and the second
time is reported, so the caller can put the set-up on the reference scale.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    src = sys.argv[1]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import clawlab
    t_import = time.perf_counter()
    clawlab.mollifier_constant(1)
    clawlab.mollifier_constant(2)
    clawlab.kernel_cdf(1.0, 0.0)
    t_end = time.perf_counter()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from refkernel import ReferenceKernel
    kernel = ReferenceKernel()
    kernel()
    print(json.dumps({"setup_s": t_end - t0, "import_s": t_import - t0,
                      "kernel_s": kernel(),
                      "clawlab_file": clawlab.__file__}))


if __name__ == "__main__":
    main()
