"""The repository benchmark: one command, two workloads, one JSON record.

Run from the repository root::

    python3 perfbench/run.py --workload align-proc8 --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen, and why
the in-process single-store pass is not one of them):

* ``align-proc8``  Table 1 pass over 8-shard process-backed endpoints
* ``http-mixed``   read mix plus refresh() writes over HTTP

Each run sets up three times (``setup_s`` is the median), measures for
``--seconds`` and checks the program's outputs.  Human-readable report
lines go to stdout first; the last stdout line is the JSON record
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
A traced run also prints the per-layer self-time table.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("align-proc8", "http-mixed")


def _catalogue(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json.

    A ``--trace 0`` record carries every end-to-end metric, a ``--trace 1``
    record every per-layer metric (a layer a workload does not exercise
    reads 0).
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def _report(line: str) -> None:
    print(f"# {line}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    catalogue = _catalogue("per_layer" if args.trace else "end_to_end")
    sys.path.insert(0, str(ROOT / "src"))

    # Everything the run writes stays inside the checkout: snapshots,
    # worker temp files, and no spec-hash world cache under ~/.cache.
    work_root = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_root.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_WORLD_CACHE"] = "off"
    os.environ["TMPDIR"] = str(work_root)
    tempfile.tempdir = str(work_root)

    try:
        if args.workload == "http-mixed":
            import http_workload as workload
        else:
            import align_workload as workload
        from common import environment_stamp, peak_rss_mb, spec_hash

        stamp = environment_stamp(args.seed, spec_hash(workload.world_spec()))
        _report(f"workload {args.workload}; environment {json.dumps(stamp, sort_keys=True)}")
        record = workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            work_root / "data", _report,
        )
        record["metrics"]["peak_rss_mb"] = peak_rss_mb()
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=10)
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for problem in record["problems"]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        layer = record["layers"]
        print(layer["table"], flush=True)
        measured = layer["metrics"]
    else:
        measured = record["metrics"]
    unknown = set(measured) - set(catalogue)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0) if args.trace else measured[name]), "unit": unit}
        for name, unit in catalogue.items()
    }
    for name, entry in metrics.items():
        _report(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": not record["problems"],
                "attempted": int(record["attempted"]),
                "failed": int(record["failed"]),
                "metrics": metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
