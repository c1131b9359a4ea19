"""One lunarforge CLI invocation in a fresh interpreter, timed from inside.

    python3 bench/child.py TIMING_JSON [--trace SPANS_JSON] [-- <lunarforge args>]

Writes TIMING_JSON with CLOCK_MONOTONIC stamps taken after ``import
lunarforge.cli`` and after the subcommand returns, plus its exit code.  The
parent stamps the launch on the same clock, so import time includes
interpreter start.  Without lunarforge arguments it only imports.  With
--trace the subcommand runs under the span tracer and the spans are written
to SPANS_JSON; without it nothing is patched.
"""

import sys
import time

import lunarforge.cli

t_imported = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (after the timed import, so it is not counted twice)
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    sep = argv.index("--") if "--" in argv else len(argv)
    opts, cli_args = argv[:sep], argv[sep + 1:]
    timing_path = Path(opts[0])
    spans_path = Path(opts[2]) if len(opts) >= 3 and opts[1] == "--trace" else None
    module_file = str(Path(lunarforge.cli.__file__).resolve())

    if not cli_args:  # import-only probe
        t0 = t1 = t_imported
        code = 0
    elif spans_path is None:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        code = lunarforge.cli.main(cli_args)
        t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
    else:
        from tracer import Tracer

        with Tracer() as tracer:
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            p0 = time.perf_counter()
            code = lunarforge.cli.main(cli_args)
            p1 = time.perf_counter()
            t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
        spans_path.write_text(json.dumps(
            {"t0": p0, "t1": p1, "spans": tracer.spans, "pools": tracer.pools}
        ))
    timing_path.write_text(json.dumps({
        "imported": t_imported, "start": t0, "end": t1, "code": code,
        "module": module_file,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
