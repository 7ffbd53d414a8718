"""Pin the perf and cost models' outputs on arrays the benchmark leaves out.

The repository benchmark's committed digests cover square 16/8/4 arrays
only.  Rectangular arrays take the exact-signature memo-key path and have
different row and column line geometry, which is where a geometry memo keyed
on a wrong or swapped tuple would alias.  Each digest hashes every design's
name, selection, STT and metrics (float reprs), or its failure stage and
reason, in emission order.  Recompute a digest only for a deliberate change
to the models, and say so in the change's notes.
"""

import hashlib

import pytest

from repro.explore.engine import EvaluationEngine
from repro.ir import workloads
from repro.perf.model import ArrayConfig

DIGESTS = {
    (8, 4): "52939fd31e157ba5674c64bbbcbcc8166b7eaf6564fa4077500695ba6ef839bb",
    (4, 8): "e3f044f38175e475a1b4a37ff2804d6f5a5bc159bd40ee6bb89459b35c4b1c45",
    (16, 16): "fc3bdfa2269f278a24fc20c506fa03bd79d2db203c70e4349f6cc0cb89017b99",
}


def _outputs_digest(rows: int, cols: int) -> tuple[str, int]:
    engine = EvaluationEngine(ArrayConfig(rows=rows, cols=cols))
    statements = (
        workloads.gemm(m=12, n=10, k=6),
        workloads.depthwise_conv(k=8, y=6, x=6, p=3, q=3),
    )
    digest = hashlib.sha256()
    designs = 0
    for statement in statements:
        for point in engine.stream(statement, per_selection_limit=8):
            head = (point.name, point.spec.selected, point.spec.stt.matrix)
            if point.ok:
                tail = tuple(
                    repr(v)
                    for v in (point.normalized_perf, point.cycles, point.area_mm2, point.power_mw)
                )
            else:
                tail = (point.failure.stage, point.failure.reason)
            digest.update(repr(head + tail).encode())
            designs += 1
    return digest.hexdigest(), designs


@pytest.mark.parametrize("rows, cols", sorted(DIGESTS))
def test_model_outputs_match_committed_digest(rows, cols):
    digest, designs = _outputs_digest(rows, cols)
    assert designs == 88  # 8 GEMM + 10 depthwise selections x 8 designs
    assert digest == DIGESTS[(rows, cols)]
