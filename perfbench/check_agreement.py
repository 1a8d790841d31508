"""Cross-deployment agreement check for the Table 1 pass.

Run from the repository root (under a minute on two cores)::

    python3 perfbench/check_agreement.py

It runs one Table 1 pass (the ``align-proc8`` workload's pass) over each
deployment in :data:`align_workload.DEPLOYMENTS` and checks:

* the single ``TripleStore`` pass gives the Table 1 and accepted-rule
  digest recorded under ``local`` in ``perfbench/reference.json``;
* agreements that hold: a single ``TripleStore`` equals one thread-backed
  shard, and 8 shards give one Table 1 over threads, worker processes
  and HTTP (queries counted by the served endpoint);
* the known defects recorded under ``known_defects`` in
  ``perfbench/reference.json`` still reproduce exactly as recorded:
  ``sharded-offset-order`` (2 and 8 shards differ from the single
  store) and ``http-align-relations`` (``SofyaAligner.align_relations()``
  raises ``AttributeError`` over ``HttpSparqlClient``).

It exits 1 when an agreement breaks or a recorded defect no longer
reproduces as recorded (a fix must update the record and the
``align-proc8`` reference together), and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

AGREEMENTS = (("local", "shard1"), ("thread8", "proc8"), ("proc8", "http8"))


def _summary(result) -> dict:
    return {"queries": result.queries, "table": result.table, "digest": result.digest}


def _align_relations_error(setup) -> str:
    """What ``align_relations()`` over the deployment raises, or ``""``."""
    from repro.align.aligner import SofyaAligner
    from align_workload import METHODS

    premise, conclusion = next(iter(setup.relations))
    aligner = SofyaAligner(
        source=setup.datasets[conclusion],
        target=setup.datasets[premise],
        links=setup.experiment.world.links,
        config=METHODS[0][1],
    )
    try:
        aligner.align_relations(setup.relations[(premise, conclusion)][:1])
    except Exception as error:  # the defect under check
        return type(error).__name__
    return ""


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["REPRO_WORLD_CACHE"] = "off"
    from align_workload import DEPLOYMENTS, build, check_pass, run_order, run_pass

    record = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    defects = record["known_defects"]
    results = {}
    problems = []
    http_error = ""
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="agreement-", dir=ROOT / ".perfbench_work"))
    try:
        for deployment in DEPLOYMENTS:
            setup = build(deployment, work_root / deployment)
            try:
                result = run_pass(setup, run_order(setup, 0))
                if deployment == "local":
                    problems.extend(f"local: {p}" for p in check_pass(result, record["local"]))
                results[deployment] = _summary(result)
                if deployment == "http8":
                    http_error = _align_relations_error(setup)
            finally:
                setup.close()
            print(f"{deployment:8s} {json.dumps(results[deployment], ensure_ascii=False, sort_keys=True)}")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it

    for left, right in AGREEMENTS:
        if results[left] != results[right]:
            problems.append(f"{left} and {right} disagree")
    offset = defects["sharded-offset-order"]
    for deployment, recorded in {"local": offset["single_store"], **offset["observed"]}.items():
        seen = {
            "queries": results[deployment]["queries"],
            "ubs yago ⊂ dbpedia": results[deployment]["table"]["ubs"]["yago ⊂ dbpedia"],
        }
        if seen != recorded:
            problems.append(f"sharded-offset-order: {deployment} gave {seen}, recorded {recorded}")
    expected = defects["http-align-relations"]["raises"]
    if http_error != expected:
        problems.append(
            f"http-align-relations: align_relations() over HTTP raised "
            f"{http_error or 'nothing'}, recorded {expected}"
        )
    for problem in problems:
        print(f"check_agreement: FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("check_agreement: agreements hold; both known defects reproduce as recorded")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
