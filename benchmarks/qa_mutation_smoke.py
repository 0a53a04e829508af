"""Mutation smoke test: does the ``repro qa`` gate actually have teeth?

A conformance gate that never goes red is indistinguishable from one
that checks nothing.  This script measures the gate's bite directly:
it copies ``src/`` into a temporary directory, applies one deliberate
off-by-one mutation at a time to the shared interval mathematics
(``core/intervals.py``) and the RP-list construction
(``core/rp_list.py``), runs ``python -m repro.cli qa`` against the
mutated tree, and asserts that **every mutant is rejected** (nonzero
exit) while the unmutated baseline passes.

The mutations are chosen to be the lockstep kind — they move every
engine *and* the naive oracle together, so differential testing alone
cannot see them; the golden corpus is what must catch them.

Deliberately named so pytest does not collect it (``bench_*.py`` files
are test modules here); run it directly:

    PYTHONPATH=src python benchmarks/qa_mutation_smoke.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import List, NamedTuple, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO, "tests", "qa", "golden")

#: Gate invocation used for every run: small budget, no extra relation
#: cases, a short differential sweep — enough for the golden corpus and
#: the mandatory relation matrix to run.
QA_ARGS = [
    "qa",
    "--budget", "30",
    "--relation-cases", "0",
    "--differential-cases", "5",
    "--golden-dir", GOLDEN_DIR,
    "--report", "-",
]


class Mutation(NamedTuple):
    """One single-site, off-by-one textual mutation."""

    name: str
    path: str  # relative to src/
    before: str
    after: str


MUTATIONS: Tuple[Mutation, ...] = (
    Mutation(
        name="intervals-strict-gap",
        path="repro/core/intervals.py",
        before="if current - previous <= per:",
        after="if current - previous < per:",
    ),
    Mutation(
        name="intervals-strict-minps",
        path="repro/core/intervals.py",
        before="if run[2] >= min_ps]",
        after="if run[2] > min_ps]",
    ),
    Mutation(
        name="rp-list-strict-gap",
        path="repro/core/rp_list.py",
        before="elif ts - self.last_ts <= per:",
        after="elif ts - self.last_ts < per:",
    ),
    # Streaming-only: batch engines and the oracle are untouched, so
    # neither differential testing nor the goldens can see it — only
    # the stream-batch / stream-checkpoint-resume relations go red.
    Mutation(
        name="streaming-strict-gap",
        path="repro/streaming/monitor.py",
        before="elif ts - state.last_ts <= self.per:",
        after="elif ts - state.last_ts < self.per:",
    ),
    # Merge-stage only: the sharded pipeline's run stitching drops one
    # periodic-support unit per stitched cut.  In-memory mining, the
    # oracle and the goldens never execute repro/shard/merge.py, so
    # only the shard-merge relation can go red.
    Mutation(
        name="shard-merge-stitch-ps",
        path="repro/shard/merge.py",
        before="self.open_ps[joined] += runs.head_ps[stitch]",
        after="self.open_ps[joined] += runs.head_ps[stitch] - 1",
    ),
)


def copy_tree(destination: str) -> str:
    """Copy ``src/`` into ``destination``; returns the new PYTHONPATH."""
    mutated_src = os.path.join(destination, "src")
    shutil.copytree(
        os.path.join(REPO, "src"),
        mutated_src,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return mutated_src


def apply_mutation(src_root: str, mutation: Mutation) -> None:
    """Rewrite exactly one occurrence of the target line."""
    path = os.path.join(src_root, mutation.path)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    occurrences = text.count(mutation.before)
    if occurrences != 1:
        raise SystemExit(
            f"{mutation.name}: expected exactly one occurrence of "
            f"{mutation.before!r} in {mutation.path}, found {occurrences} "
            "- the mutation targets have drifted; update this script"
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(mutation.before, mutation.after))


def run_gate(src_root: str) -> int:
    """Run the qa gate against ``src_root``; returns the exit code."""
    environment = dict(os.environ, PYTHONPATH=src_root)
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *QA_ARGS],
        env=environment,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return completed.returncode


def main() -> int:
    rows: List[Tuple[str, str, str]] = []
    failed = False

    with tempfile.TemporaryDirectory(prefix="repro-mutation-") as workdir:
        baseline_src = copy_tree(os.path.join(workdir, "baseline"))
        code = run_gate(baseline_src)
        verdict = "ok" if code == 0 else "GATE BROKEN"
        failed = failed or code != 0
        rows.append(("(baseline)", "expects exit 0", f"exit {code}: {verdict}"))

        for mutation in MUTATIONS:
            mutant_src = copy_tree(os.path.join(workdir, mutation.name))
            apply_mutation(mutant_src, mutation)
            code = run_gate(mutant_src)
            caught = code != 0
            failed = failed or not caught
            rows.append((
                mutation.name,
                f"{mutation.before.strip()} -> {mutation.after.strip()}",
                f"exit {code}: {'caught' if caught else 'MISSED'}",
            ))

    width = max(len(row[0]) for row in rows)
    print("qa gate mutation smoke")
    for name, change, outcome in rows:
        print(f"  {name:<{width}}  {outcome:<18}  {change}")
    if failed:
        print("FAIL: the gate missed a mutant (or rejected the baseline)")
        return 1
    print("PASS: baseline green, every mutant rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
