"""Time radmul's shared set-up in a fresh process and print provenance.

Usage: python3 radbench/setup_probe.py CONFIG_JSON

Set-up is importing radmul, loading the configuration and building its
FockSpace, the state every verification suite starts from.  The printed
JSON object also carries the workload's dimensions and the truncation
error of its Hankel pair, computed after the timed part.
"""

from __future__ import annotations

import json
import platform
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    from radmul.config import load_config
    cfg = load_config(sys.argv[1])
    space = cfg.space()
    setup_s = time.perf_counter() - t0

    import numpy
    from radmul.symbols import hankel_pair
    pair = hankel_pair(cfg.symbol, cfg.hankel_dim)
    print(json.dumps({
        "setup_s": setup_s,
        "dim": space.dim,
        "words": len(space.words),
        "dim_N": space.dim_N,
        "fock_len": cfg.fock_len,
        "hankel_dim": cfg.hankel_dim,
        "tail_error": pair.tail_error,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "radmul_file": sys.modules["radmul"].__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
