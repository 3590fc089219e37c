"""Set-up probe: the work `fma_tv validate` does before its first check.

Run as `python bench/probe.py ORIGINAL OPTIMIZED ALIGNMENT` with `src` on
PYTHONPATH.  Prints one JSON line with the seconds each phase took and the
monotonic clock reading once the checker is built; the caller subtracts its
own reading taken at spawn, so interpreter start-up is included.  Exits 1
if the pair is statically unsupported.
"""

import json
import sys
import time


def main(original: str, optimized: str, alignment: str) -> int:
    t0 = time.perf_counter()
    from fma_tv import cli  # noqa: F401  (validate imports the whole package)
    from fma_tv.ir_core import parse_module
    from fma_tv.refinement import EquivChecker, RefinementConfig, load_alignment

    t1 = time.perf_counter()
    (orig,), (opt,) = (parse_module(open(p, encoding="utf-8").read()) for p in (original, optimized))
    t2 = time.perf_counter()
    align = load_alignment(open(alignment, encoding="utf-8").read())
    t3 = time.perf_counter()
    checker = EquivChecker(orig, opt, align, RefinementConfig())
    t4 = time.perf_counter()
    print(json.dumps({
        "ready": t4,
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "alignment_s": t3 - t2,
        "checker_init_s": t4 - t3,
    }))
    return 0 if checker.static_unsupported is None else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
