"""Output digests and the committed expectations they are checked against.

Two digests per swept workload, both over the points *and* structured
failures in emission order:

- the **design digest** covers the ``(selection, STT)`` list only, which
  does not depend on loop extents or the array;
- the **output digest** adds every model output bit for bit
  (``float.hex``) plus each failure's stage and reason.

``expected.json`` holds the design digests and the output digest of every
catalogue extent choice; ``make_expected.py`` rewrites it from the current
program, which is only right when a change means to alter model outputs.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def emitted(result) -> list:
    """Points and failures of one result, back in emission order."""
    return sorted(result.points + result.failures, key=lambda p: p.seq)


def design_digest(result) -> str:
    return _sha([[list(p.spec.selected), [list(r) for r in p.spec.stt.matrix]]
                 for p in emitted(result)])


def output_digest(result) -> str:
    rows = []
    for p in emitted(result):
        failure = None if p.failure is None else [p.failure.stage, p.failure.reason]
        rows.append([
            list(p.spec.selected),
            [list(r) for r in p.spec.stt.matrix],
            [float(v).hex() for v in p.metrics()],
            failure,
        ])
    array = result.array
    return _sha([result.workload, [array.rows, array.cols, array.freq_mhz], rows])


def results_digest(results) -> str:
    """One digest over a whole sweep's results, in result order."""
    return _sha([output_digest(r) for r in results])


def answer_payload(answer) -> dict:
    """An ``EvalResult`` as a dict, minus the transport-only ``cached`` flag."""
    payload = answer.to_dict()
    payload.pop("cached", None)
    return payload


def answer_digest(answers) -> str:
    """Digest of answers in order; a request that raised counts by its error type."""
    return _sha([{"raised": type(a).__name__} if isinstance(a, Exception) else answer_payload(a)
                 for a in answers])


def output_key(workload: str, extents: dict, rows: int, mode: str) -> str:
    return f"{workload} {json.dumps(extents, sort_keys=True)} {rows}x{rows} {mode}"


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check_results(results, extents: dict, mode: str, expected: dict) -> list[str]:
    """Mismatches of ``results`` against the committed digests (empty = pass)."""
    problems = []
    for result in results:
        name = result.workload
        want = expected["designs"][mode].get(name)
        got = design_digest(result)
        if got != want:
            problems.append(f"{name}: design list digest {got[:12]} != expected {str(want)[:12]}")
        key = output_key(name, extents[name], result.array.rows, mode)
        want = expected["outputs"].get(key)
        got = output_digest(result)
        if got != want:
            problems.append(f"{key}: output digest {got[:12]} != expected {str(want)[:12]}")
    return problems
