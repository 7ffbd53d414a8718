"""Seeded inputs for the three workloads.

Every input a run uses is drawn here from ``--seed``; the program under test
only ever sees the generated inputs.  Loop extents come from small fixed
catalogues so that the committed output digests in ``expected.json`` cover
every extent choice a seed can make.
"""

from __future__ import annotations

import random

#: The paper's Fig. 6 pair, swept in full by ``sweep_cold``.
SWEEP_WORKLOADS = ("gemm", "depthwise_conv")

#: The six Table II workloads swept by ``fleet_warm``.
TABLE_II = ("gemm", "batched_gemv", "conv2d", "depthwise_conv", "mttkrp", "ttmc")

#: Array sizes of the ``fleet_warm`` grid (rows = cols).
FLEET_ARRAYS = (16, 8, 4)

#: Per-selection design cap of the ``fleet_warm`` grid.
FLEET_LIMIT = 8

#: Extent choices per workload.  Sizes stay mid-range so that the perf
#: model's cost (which grows with the tile box) moves little between choices.
EXTENTS: dict[str, tuple[dict[str, int], ...]] = {
    "gemm": (
        {"m": 64, "n": 64, "k": 64},
        {"m": 128, "n": 96, "k": 48},
        {"m": 48, "n": 80, "k": 112},
        {"m": 96, "n": 128, "k": 64},
    ),
    "batched_gemv": (
        {"m": 16, "n": 64, "k": 64},
        {"m": 32, "n": 48, "k": 96},
        {"m": 8, "n": 128, "k": 64},
        {"m": 24, "n": 96, "k": 48},
    ),
    "conv2d": (
        {"k": 64, "c": 64, "y": 56, "x": 56, "p": 3, "q": 3},
        {"k": 32, "c": 64, "y": 28, "x": 28, "p": 3, "q": 3},
        {"k": 128, "c": 32, "y": 14, "x": 14, "p": 3, "q": 3},
        {"k": 48, "c": 48, "y": 40, "x": 40, "p": 3, "q": 3},
    ),
    "depthwise_conv": (
        {"k": 64, "y": 56, "x": 56, "p": 3, "q": 3},
        {"k": 32, "y": 28, "x": 28, "p": 3, "q": 3},
        {"k": 48, "y": 40, "x": 40, "p": 3, "q": 3},
        {"k": 96, "y": 28, "x": 28, "p": 3, "q": 3},
    ),
    "mttkrp": (
        {"i": 32, "j": 32, "k": 32, "l": 32},
        {"i": 64, "j": 16, "k": 32, "l": 48},
        {"i": 48, "j": 48, "k": 24, "l": 24},
        {"i": 16, "j": 64, "k": 64, "l": 16},
    ),
    "ttmc": (
        {"i": 32, "j": 32, "k": 32, "l": 32, "m": 32},
        {"i": 16, "j": 48, "k": 48, "l": 16, "m": 32},
        {"i": 48, "j": 24, "k": 24, "l": 48, "m": 16},
        {"i": 24, "j": 32, "k": 40, "l": 24, "m": 24},
    ),
}


def draw_extents(seed: int, names) -> dict[str, dict[str, int]]:
    """One catalogue extent choice per workload, drawn from ``seed``."""
    rng = random.Random(f"extents:{seed}")
    return {name: dict(rng.choice(EXTENTS[name])) for name in names}


# ----------------------------------------------------------------------
# request_mix
# ----------------------------------------------------------------------
#: ``resolve=simplest`` names from the ``bench_fig5_*`` lists whose
#: resolution walks a similar stretch of the candidate stream (25-50 ms in
#: process), so the median sits inside one dense latency band.
SIMPLEST_NAMES = {
    "gemm": ("MNK-SST", "MNK-TSS", "MNK-STS", "MNK-MSM"),
    "batched_gemv": ("MNK-USS",),
    "conv2d": ("KCX-SST", "KCX-STS"),
    "mttkrp": ("IJK-SSBT", "IJK-TSBS", "IJL-SBTS"),
    "ttmc": ("IJL-SSBT", "IJL-STBS"),
}

#: ``resolve=best`` names (270-450 ms in process): the heavy class that the
#: p95 lands inside.
BEST_NAMES = {
    "gemm": ("MNK-MSM", "MNK-STM", "MNK-SST", "MNK-TSS", "MNK-STS", "MNK-SSS"),
    "batched_gemv": ("MNK-USS",),
    "conv2d": ("KCX-SST", "KCX-STS", "XPQ-SSM"),
    "depthwise_conv": ("KQX-MMM", "KPY-MMM"),
    "mttkrp": ("IJK-SSBT", "IJK-TSBS", "IJL-SBTS"),
    "ttmc": ("IJL-SSBT", "IJL-STBS"),
}

#: Functional-simulation cases: the tiny shapes of the simulator tests with
#: names whose netlist run takes 20-70 ms on a 2x2 to 4x4 array.
SIM_CASES = (
    ("gemm", {"m": 4, "n": 4, "k": 6}, ("MNK-SST", "MNK-STS", "MNK-TSS", "MNK-MSM")),
    ("batched_gemv", {"m": 4, "n": 4, "k": 4}, ("MNK-USS",)),
    ("depthwise_conv", {"k": 4, "y": 4, "x": 4, "p": 3, "q": 3}, ("KQX-MMM",)),
    ("mttkrp", {"i": 3, "j": 4, "k": 4, "l": 3}, ("IJK-SSBT", "IKL-UBBB")),
    ("ttmc", {"i": 3, "j": 4, "k": 4, "l": 3, "m": 3}, ("IJK-BBBU",)),
)
SIM_ARRAYS = (2, 3, 4)

#: Loop-extent values the non-sim requests draw from (per loop).
REQUEST_EXTENTS = {
    "gemm": {"m": (16, 24, 32, 48, 64, 96, 128), "n": (16, 24, 32, 48, 64, 96, 128),
             "k": (16, 24, 32, 48, 64, 96, 128)},
    "batched_gemv": {"m": (8, 16, 24, 32), "n": (32, 48, 64, 96), "k": (32, 48, 64, 96)},
    "conv2d": {"k": (16, 32, 64), "c": (16, 32, 64), "y": (7, 14, 28, 56), "x": (7, 14, 28, 56),
               "p": (3,), "q": (3,)},
    "depthwise_conv": {"k": (16, 32, 64), "y": (14, 28, 56), "x": (14, 28, 56), "p": (3,), "q": (3,)},
    "mttkrp": {"i": (16, 24, 32, 48), "j": (16, 24, 32, 48), "k": (16, 24, 32, 48),
               "l": (16, 24, 32, 48)},
    "ttmc": {"i": (16, 24, 32), "j": (16, 24, 32), "k": (16, 24, 32), "l": (16, 24, 32),
             "m": (16, 24, 32)},
}

#: One block of the closed loop: every 20 requests carry exactly this class
#: mix, shuffled per block.  ``best`` is 10% so the p95 sits in the middle of
#: the ``best`` band rather than on its edge; repeats are 20%.
BLOCK = (
    ("perf", "simplest"),) * 5 + (("cost", "simplest"),) * 3 + (
    ("fpga", "simplest"),) * 3 + (("sim", None),) * 3 + (
    ("perf", "best"), ("cost", "best")) + (("repeat", None),) * 4

#: Untimed warm-up requests, one per backend.  Their extents lie outside
#: :data:`REQUEST_EXTENTS` and :data:`SIM_CASES`, so no timed request is a
#: memo hit on a warm-up entry.
WARMUP = (
    {"workload": "gemm", "dataflow": "MNK-SST", "backend": "perf",
     "extents": {"m": 8, "n": 8, "k": 8}, "options": {"resolve": "best"}},
    {"workload": "gemm", "dataflow": "MNK-STS", "backend": "cost",
     "extents": {"m": 8, "n": 8, "k": 8}, "options": {}},
    {"workload": "gemm", "dataflow": "MNK-TSS", "backend": "fpga",
     "extents": {"m": 8, "n": 8, "k": 8}, "options": {}},
    {"workload": "gemm", "dataflow": "MNK-SST", "backend": "sim", "rows": 2,
     "extents": {"m": 4, "n": 4, "k": 4}, "options": {"seed": 0}},
)


class RequestStream:
    """The seeded closed-loop request sequence of ``request_mix``.

    Yields plain dicts (``workload``, ``dataflow``, ``backend``, ``extents``,
    ``options``, ``rows``, ``repeat_of``); the caller turns them into
    :class:`repro.api.DesignRequest` objects.  Fresh requests never share a
    memo key with an earlier one, so the repeat share is exact.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(f"requests:{seed}")
        self.sent: list[dict] = []
        self._originals: list[int] = []  # indices of fresh requests in sent
        self._keys: set[str] = set()
        self._block: list = []
        self._decks: dict[tuple, list] = {}

    def __iter__(self):
        return self

    def __next__(self) -> dict:
        if not self._block:
            self._block = list(BLOCK)
            self.rng.shuffle(self._block)
        backend, resolve = self._block.pop()
        if backend == "repeat" and self._originals:
            index = self.rng.choice(self._originals)
            request = dict(self.sent[index], repeat_of=index)
        else:
            if backend == "repeat":  # nothing to repeat yet
                backend, resolve = "perf", "simplest"
            request = self._fresh(backend, resolve)
            self._originals.append(len(self.sent))
        self.sent.append(request)
        return request

    def _deal(self, backend: str, resolve: str | None) -> tuple:
        """The next design of this class from a shuffled deck.

        Every (workload, name[, array]) of a class is dealt once before any
        repeats, so each run holds nearly the same mix whatever the seed.
        """
        deck = self._decks.setdefault((backend, resolve), [])
        if not deck:
            if backend == "sim":
                deck += [(w, e, n, rows) for w, e, names in SIM_CASES
                         for n in names for rows in SIM_ARRAYS]
            else:
                table = BEST_NAMES if resolve == "best" else SIMPLEST_NAMES
                deck += [(w, n) for w, names in sorted(table.items()) for n in names]
            self.rng.shuffle(deck)
        return deck.pop()

    def _fresh(self, backend: str, resolve: str | None) -> dict:
        rng = self.rng
        while True:
            if backend == "sim":
                workload, extents, name, rows = self._deal(backend, resolve)
                request = {
                    "workload": workload,
                    "dataflow": name,
                    "backend": "sim",
                    "extents": dict(extents),
                    "options": {"seed": rng.randrange(1_000_000)},
                    "rows": rows,
                }
            else:
                workload, name = self._deal(backend, resolve)
                request = {
                    "workload": workload,
                    "dataflow": name,
                    "backend": backend,
                    "extents": {
                        loop: rng.choice(values)
                        for loop, values in REQUEST_EXTENTS[workload].items()
                    },
                    "options": {"resolve": resolve},
                    "rows": 16,
                }
            key = repr(sorted((k, repr(v)) for k, v in request.items()))
            if key not in self._keys:
                self._keys.add(key)
                request["repeat_of"] = None
                return request
