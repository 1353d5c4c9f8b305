"""One measured repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py --config CONFIG (--out DIR [--trace [--spans FILE]] | --setup-only)

Times set-up (the faircollab import, ``load_config``, ``build_cell_data``
and ``build_parties`` of the first cell) from this interpreter's first
statement, then ``harness.run_experiment`` over the whole grid, and
prints one JSON line with the times and this process's peak resident
memory. ``faircollab`` must be importable (``PYTHONPATH=src``).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402


def setup(config_path):
    import numpy as np
    from faircollab import harness

    config = harness.load_config(config_path)
    setting, seed = config.settings[0], config.seeds[0]
    datasets, spec, _test, adversaries = harness.build_cell_data(config, setting, seed)
    proto = replace(config.protocol, dataset_name=config.dataset.name)
    # The parties are built only to time set-up; run_experiment builds its own.
    harness.build_parties(datasets, spec.sharing_levels, proto,
                          np.random.SeedSequence([seed, setting, 7]), adversaries)
    return config, harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", help="output directory of the run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if not (args.setup_only or args.out):
        parser.error("--out is required unless --setup-only")

    config, harness = setup(args.config)
    result = {"setup_s": time.perf_counter() - T0, "package": harness.__file__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer, traced

            tracer = Tracer()
        with traced(tracer) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            harness.run_experiment(config, args.out)
            result["wall_s"] = time.perf_counter() - start
        if tracer:
            result["layers"] = tracer.layer_metrics()
            result["self_time_total_s"] = tracer.total_self_time()
            if args.spans:
                tracer.dump(args.spans)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
