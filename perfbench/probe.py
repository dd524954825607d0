"""Set-up probe, run in a fresh interpreter by run.py.

Times the import of adaptmc (numpy and scipy included) and then the parse
and build of one config, and prints both as one JSON line.

    python3 perfbench/probe.py CONFIG.json
"""

import json
import sys
import time


def main(path):
    t0 = time.perf_counter()
    from adaptmc import config
    from adaptmc import experiments  # noqa: F401  (the rounds need it too)
    t1 = time.perf_counter()
    with open(path) as f:
        cfg = config.parse_config(f.read())
    if cfg.kernel is not None:
        kernel = config.build_kernel(cfg.kernel)
        if cfg.init is not None:
            config.build_tuning(cfg.init["tuning"])
            if cfg.policy is not None:
                config.build_init(cfg.init, kernel)
    if cfg.policy is not None:
        config.build_policy(cfg.policy)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1])
