"""One benchmark job: import twinwalk, then run one CLI command in-process.

    python3 perfbench/job.py RESULT.json [SPANS.json] -- TWINWALK-ARGS...

twinwalk must be importable (the benchmark sets ``PYTHONPATH=src``).  The job
times the import (``setup_s``) apart from the command (``wall_s``, ``cpu_s``)
and writes them, with the process's peak RSS, to RESULT.json.  With SPANS.json
it also wraps the program's layers (see spans.py) and writes the recorded
spans there.  The process exits with the command's exit code.
"""

import contextlib
import ctypes
import json
import resource
import sys
import time
import traceback


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be read."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return None


def main(argv: list[str]) -> int:
    split = argv.index("--")
    result_path, spans_path = (argv[:split] + [None])[:2]
    cli_args = argv[split + 1:]

    start = time.perf_counter()
    from twinwalk import cli
    setup_s = time.perf_counter() - start

    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.Recorder()
        recorder.install()

    cpu_before = _cpu_seconds()
    start = time.perf_counter()
    code = 0
    try:
        with recorder.span("cli") if recorder else contextlib.nullcontext():
            returned = cli.main(cli_args, standalone_mode=False)
        if isinstance(returned, int):
            code = returned
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = 1
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(result_path, "w", encoding="utf-8") as out:
        json.dump({
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "blas_threads": _blas_threads(),
        }, out)
    if recorder is not None:
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump(recorder.dump(), out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
