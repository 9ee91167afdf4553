"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py RESULT.json [--trace SPANS.json] -- ARGV...

Times ``import spincat``, then calls ``spincat.cli.main(ARGV)`` and times that
call.  With no ARGV it only times the import.  The result file receives
import_s, op_s, the return code or the exception, and ru_maxrss.  With
--trace the layer spans of the call are written to SPANS.json after the call.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> None:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, op_argv = argv[:split], argv[split + 1:]
    result_path = own[0]
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None

    t0 = time.perf_counter()
    import spincat  # noqa: F401
    import_s = time.perf_counter() - t0
    result = {"import_s": import_s}
    if op_argv:
        import spincat.cli

        tracer = None
        if spans_path:
            from tracer import Tracer  # the script's directory leads sys.path

            tracer = Tracer()
            tracer.install()
        rc, error = None, None
        t1 = time.perf_counter()
        try:
            rc = spincat.cli.main(op_argv)
        except Exception as exc:  # the operation's failure is the measurement
            error = f"{type(exc).__name__}: {exc}"
        result["op_s"] = time.perf_counter() - t1
        result["rc"] = rc
        result["error"] = error
        if tracer is not None:
            result["restored"] = tracer.uninstall()
            tracer.dump(spans_path, " ".join(op_argv))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
