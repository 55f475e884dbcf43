"""One repetition of a workload, run in a fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

The spec names the gsloc source tree, the input files, the timed job
commands and the untimed check commands. The worker times set-up (importing
gsloc.cli, loading both splits, filtering queries), then the job through
gsloc.cli.main, and writes the timings, exit codes, captured output and its
own peak RSS to RESULT.json. With "trace" set, it wraps gsloc's public
functions before the job and adds their raw spans and counts.
"""

import contextlib
import gc
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

_CACHE_LINE = re.compile(r"cache (hit|miss)\b")


def _call_cli(argv: list[str]) -> dict:
    import gsloc.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gsloc.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue() + err.getvalue()
    return {"command": argv[0], "rc": rc, "output": text[-4000:],
            "cache": _CACHE_LINE.findall(text)}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    start = time.perf_counter()
    import gsloc.cli  # noqa: F401  (part of what set-up measures)
    from gsloc.dataset import filter_reachable_queries, load_dataset
    support = load_dataset(spec["support_metadata"], spec["support_descriptors"],
                           role="support")
    query = load_dataset(spec["query_metadata"], spec["query_descriptors"],
                         role="query")
    filter_reachable_queries(query, support, radius_m=spec["threshold_m"])
    setup_s = time.perf_counter() - start
    del support, query
    gc.collect()

    import gsloc
    src = Path(spec["src"]).resolve()
    if src not in Path(gsloc.__file__).resolve().parents:
        raise SystemExit(f"imported gsloc from {gsloc.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    ops = [_call_cli(argv) for argv in spec["commands"]]
    wall_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # snapshot the job's spans before the check commands add to them
    traced = None if tracer is None else json.dumps(
        {"spans": tracer.spans, "raw": tracer.raw})
    checks = [_call_cli(argv) for argv in spec["check_commands"]]

    cache = [word for op in ops for word in op["cache"]]
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_kb": peak_rss_kb,
        "ops": ops, "check_ops": checks,
        "cache_hits": cache.count("hit"), "cache_misses": cache.count("miss"),
    }
    if traced is not None:
        result["tracer"] = json.loads(traced)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
