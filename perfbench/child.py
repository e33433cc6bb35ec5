"""One benchmark repetition in a fresh interpreter.

    python3 child.py --import-only
    python3 child.py [--trace SPANS.json] -- <collective-mode arguments>

Times `import collective_mode.cli`, then (unless --import-only) runs
`collective_mode.cli.main` on the given arguments, with the outside-in
tracer installed when --trace is given.  The BLAS thread caps must
already be in the environment: numpy reads them when it loads.  The
last line of standard output is one JSON record.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback


def host_facts():
    import numpy
    import scipy

    import collective_mode

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": collective_mode.BACKEND_NAME,
    }


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    import_only = argv == ["--import-only"]
    cli_args = argv[1:] if argv[:1] == ["--"] else argv

    start = time.perf_counter()
    import collective_mode.cli as cli
    record = {"import_s": time.perf_counter() - start}
    if import_only:
        record["host"] = host_facts()
        print(json.dumps(record))
        return 0

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(cli_args)
    except Exception:  # an internal bug is a failed repetition, not a crash
        traceback.print_exc()
        rc = None
    record["wall_s"] = time.perf_counter() - start
    record["cpu_s"] = time.process_time() - cpu_start
    if tracer is not None:
        tracer.write(trace_path)
    record["rc"] = rc
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
