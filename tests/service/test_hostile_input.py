"""Property-style fuzz of the ``/v1`` body decoding path.

The server's contract for hostile input is a *clean* client error: malformed,
oversized, deeply nested, or wrong-typed bodies must come back as enveloped
4xx responses — never a 500, never a hung connection.  The body bound
(:func:`repro.service.wire.bounded_body`, ``--max-body-bytes``) and the
nesting guard (``RecursionError`` folded into the invalid-JSON 400) are what
RA008 proves statically; these tests prove them dynamically.

The service fixture runs with a deliberately small 4 KiB body bound so the
oversize paths are cheap to exercise.
"""

import http.client
import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DesignRequest, LocalSession
from repro.api.types import MAX_NAMES, MAX_RESOLVE_LIMIT
from repro.perf.model import ArrayConfig
from repro.service import RemoteSession, ServiceThread
from repro.service import wire

BODY_LIMIT = 4096

#: JSON documents that are *shaped wrong* for every /v1 route: scalars where
#: objects belong, objects with junk keys, wrong-typed field values.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_wrong_typed = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=4),
    st.dictionaries(st.text(max_size=8), _scalars, max_size=4),
    st.fixed_dictionaries(
        {
            "workload": _scalars,
            "dataflow": st.lists(_scalars, max_size=3),
            "extents": _scalars,
        }
    ),
    st.fixed_dictionaries({"workloads": _scalars, "configs": _scalars}),
)


@pytest.fixture(scope="module")
def service():
    session = LocalSession(ArrayConfig(rows=2, cols=2))
    with ServiceThread(session, max_body_bytes=BODY_LIMIT) as thread:
        yield thread


def _post(service, path, body, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=timeout)
    try:
        conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestOversizedBody:
    def test_body_past_the_bound_is_413(self, service):
        body = b'{"pad": "' + b"x" * (BODY_LIMIT + 100) + b'"}'
        status, raw = _post(service, "/v1/evaluate", body)
        assert status == 413
        payload = json.loads(raw)
        assert payload["error_type"] == "PayloadTooLargeError"
        assert str(BODY_LIMIT) in payload["error"]

    def test_server_survives_an_oversized_body(self, service):
        _post(service, "/v1/evaluate", b"x" * (BODY_LIMIT * 4))
        # the service answers the *next* connection normally
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        conn.request("GET", "/v1/healthz")
        assert conn.getresponse().status == 200
        conn.close()

    def test_garbage_content_length_is_400(self, service):
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=30
        ) as sock:
            sock.sendall(
                b"POST /v1/evaluate HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: banana\r\n\r\n"
            )
            head = sock.recv(64)
        assert b"400" in head.split(b"\r\n", 1)[0]

    def test_negative_content_length_is_400(self, service):
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=30
        ) as sock:
            sock.sendall(
                b"POST /v1/evaluate HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: -5\r\n\r\n"
            )
            head = sock.recv(64)
        assert b"400" in head.split(b"\r\n", 1)[0]


class TestDeeplyNestedBody:
    def test_nesting_past_the_recursion_limit_is_400(self, service):
        depth = 2000  # > CPython's default recursion limit, < the body bound
        body = b"[" * depth + b"]" * depth
        assert len(body) <= BODY_LIMIT
        status, raw = _post(service, "/v1/evaluate", body)
        assert status == 400
        assert "invalid JSON" in json.loads(raw)["error"]

    def test_nested_inside_a_field_is_400_not_500(self, service):
        nest = "[" * 1900 + "]" * 1900
        body = ('{"extents": ' + nest + "}").encode()
        status, _ = _post(service, "/v1/evaluate", body)
        assert status == 400


class TestWrongTypedBodies:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(document=_wrong_typed)
    def test_wrong_typed_json_is_a_clean_4xx(self, service, document):
        body = json.dumps(document).encode()
        if len(body) > BODY_LIMIT:
            body = b"{}"
        for path in ("/v1/evaluate", "/v1/jobs"):
            status, raw = _post(service, path, body)
            assert 400 <= status < 500, (path, document, status, raw)
            payload = json.loads(raw)
            assert "error" in payload and "error_type" in payload

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(junk=st.binary(min_size=1, max_size=256))
    def test_raw_bytes_never_500_or_hang(self, service, junk):
        status, raw = _post(service, "/v1/evaluate", junk)
        assert 400 <= status < 500, (junk, status, raw)


class TestJobCap:
    def test_job_expansion_past_the_cap_is_400(self, service):
        # 60 workloads x 20 configs = 1200 expanded items > MAX_JOB_ITEMS,
        # from a compact body (bare workload names inherit job extents)
        body = json.dumps(
            {
                "workloads": ["gemm"] * 60,
                "extents": {"m": 4, "n": 4, "k": 4},
                "configs": [{"rows": 2, "cols": 2}] * 20,
            }
        ).encode()
        assert len(body) <= BODY_LIMIT
        status, raw = _post(service, "/v1/jobs", body)
        assert status == 400
        payload = json.loads(raw)
        assert "capped" in payload["error"]

    def test_oversized_workloads_list_is_400(self, service):
        body = json.dumps({"workloads": ["g"] * (wire.MAX_JOB_ITEMS + 1)}).encode()
        if len(body) > BODY_LIMIT:
            # past the body bound it is refused even earlier, as a 413
            status, _ = _post(service, "/v1/jobs", body)
            assert status == 413
        else:
            status, raw = _post(service, "/v1/jobs", body)
            assert status == 400
            assert "capped" in json.loads(raw)["error"]

    def test_bounded_body_unit_contract(self):
        assert wire.bounded_body("123") == 123
        assert wire.bounded_body(None) == 0
        with pytest.raises(ValueError):
            wire.bounded_body("banana")
        with pytest.raises(ValueError):
            wire.bounded_body("-1")
        with pytest.raises(wire.PayloadTooLargeError):
            wire.bounded_body(str(wire.MAX_BODY_BYTES + 1))
        assert issubclass(wire.PayloadTooLargeError, ValueError)


class TestBoundCap:
    """``bound`` sizes a process-wide, never-evicted candidate table that
    grows as ``(2 * bound + 1) ** 9``: anything outside ``1..2`` is refused
    before any of it is built."""

    GEMM = {"workload": "gemm", "extents": {"m": 4, "n": 4, "k": 4}}

    @pytest.mark.parametrize("bound", [0, 3, 40, -1, "2", True, 1.5, None])
    def test_job_with_a_bound_outside_1_to_2_is_400_at_submit(self, service, bound):
        body = json.dumps(
            {"workloads": ["gemm"], "extents": self.GEMM["extents"], "options": {"bound": bound}}
        ).encode()
        status, raw = _post(service, "/v1/jobs", body)
        assert status == 400
        assert "bound" in json.loads(raw)["error"]

    def test_evaluate_with_bound_3_is_a_resolve_failure(self, service):
        request = DesignRequest(workload="gemm", extents=self.GEMM["extents"],
                                dataflow="MNK-SST", options={"bound": 3})
        status, raw = _post(service, "/v1/evaluate", request.to_json().encode())
        assert status == 200
        payload = json.loads(raw)
        assert payload["ok"] is False
        assert payload["failure_stage"] == "resolve"
        assert "bound" in payload["failure_reason"]

    def test_evaluate_names_with_bound_0_is_400(self, service):
        body = json.dumps(dict(self.GEMM, names=["MNK-SST"], bound=0)).encode()
        status, raw = _post(service, "/v1/evaluate_names", body)
        assert status == 400
        assert "bound" in json.loads(raw)["error"]

    def test_engine_options_unit_contract(self):
        assert wire.engine_options({"options": {"bound": 2}}) == {"bound": 2}
        assert wire.engine_options({"options": {"bound": 1}}) == {"bound": 1}
        for bound in (0, 3, "1", False):
            with pytest.raises(ValueError, match="bound"):
                wire.engine_options({"options": {"bound": bound}})


def _explore(service, **options):
    """A remote explore of an 8x8x8 GEMM on a 4x4 array (a one-item job)."""
    remote = RemoteSession(service.url, array=ArrayConfig(rows=4, cols=4))
    try:
        return remote.explore("gemm", extents={"m": 8, "n": 8, "k": 8}, **options)
    finally:
        remote.close()


class TestEngineOptions:
    """The engine options of job payloads pass one validator
    (``wire.engine_options``) before any work: a flag must be a JSON boolean
    and ``per_selection_limit`` null or an integer >= 1.  The sweep
    coordinator runs it before it submits, and the library's enumeration
    refuses the same limits."""

    GEMM = {"workload": "gemm", "extents": {"m": 8, "n": 8, "k": 8}}
    BAD = [("per_selection_limit", v) for v in (0, -3, True, False, "abc", 1.5, "1")] + [
        (flag, v)
        for flag in ("one_d_only", "realizable_only", "canonical")
        for v in ("false", "no", 0, 1, None)
    ]

    @pytest.mark.parametrize("field, value", BAD)
    def test_job_submit_refuses(self, service, field, value):
        body = {"workloads": ["gemm"], "extents": self.GEMM["extents"], "options": {field: value}}
        status, raw = _post(service, "/v1/jobs", json.dumps(body).encode())
        assert status == 400, raw
        payload = json.loads(raw)
        assert payload["error_type"] == "ValueError"
        assert field in payload["error"]

    @pytest.mark.parametrize("field, value", BAD)
    def test_library_refuses(self, service, field, value):
        from repro.core.enumerate import iter_designs, iter_specs
        from repro.ir import workloads
        from repro.service import SweepCoordinator

        with pytest.raises(ValueError, match=field):
            wire.engine_options({"options": {field: value}})
        with pytest.raises(ValueError, match=field):
            SweepCoordinator([service.url]).sweep(["gemm"], **{field: value})
        if field == "per_selection_limit":
            gemm = workloads.gemm(8, 8, 8)
            with pytest.raises(ValueError, match=field):
                LocalSession(ArrayConfig(rows=4, cols=4)).explore(gemm, **{field: value})
            with pytest.raises(ValueError, match=field):
                next(iter_designs(gemm, per_selection_limit=value))
            with pytest.raises(ValueError, match="limit"):
                next(iter_specs(gemm, ("m", "n", "k"), limit=value))

    def test_valid_options_still_answer(self, service):
        one = _explore(service, per_selection_limit=1)
        assert len(one.points) == 1 and not one.failures, one
        every = _explore(service, per_selection_limit=None, one_d_only=False,
                         realizable_only=True, canonical=True)
        assert len(every.points) > 1 and not every.failures, every
        exact = _explore(service, canonical=False, per_selection_limit=2)
        assert len(exact) > len(one), exact
        options = {"per_selection_limit": None, "canonical": False}
        assert wire.engine_options({"options": options}) == options


class TestSelections:
    """``selections`` must be a list of lists of loop names
    (``wire.engine_options``), and each entry 3 distinct loops of the
    statement with none repeated (``wire.check_selections``).  Both run where
    the statement is instantiated: job submit answers 400 before any work,
    and the sweep coordinator refuses before it submits.  The library's
    enumeration keeps counting such entries as invalid."""

    GEMM = {"workload": "gemm", "extents": {"m": 8, "n": 8, "k": 8}}
    #: (selections, a fragment the error must carry)
    BAD = [
        ("mnk", "selections must be a list"),  # would split into one-letter entries
        ({"m": 1}, "selections must be a list"),
        ([[1, 2, 3]], "selections must be a list"),
        ([["m", "n", "k"], "nmk"], "selections must be a list"),
        ([["m", "n", "zz"]], "['m', 'n', 'zz']"),
        ([["m", "n"]], "['m', 'n']"),
        ([["m", "m", "k"]], "['m', 'm', 'k']"),
        ([["m", "n", "k"], ["k", "n", "m"], ["m", "n", "k"]], "['m', 'n', 'k'] is repeated"),
    ]
    IDS = ["string", "object", "ints", "string-entry", "unknown-loop", "two-loops",
           "same-loop-twice", "repeated"]

    @pytest.mark.parametrize("selections, named", BAD, ids=IDS)
    def test_job_submit_refuses(self, service, selections, named):
        body = {"workloads": ["gemm"], "extents": self.GEMM["extents"],
                "options": {"selections": selections}}
        status, raw = _post(service, "/v1/jobs", json.dumps(body).encode())
        assert status == 400, raw
        payload = json.loads(raw)
        assert payload["error_type"] == "ValueError"
        assert named in payload["error"], payload

    @pytest.mark.parametrize("selections, named", BAD, ids=IDS)
    def test_coordinator_refuses_before_it_submits(self, service, selections, named):
        from repro.service import SweepCoordinator

        coordinator = SweepCoordinator([service.url])
        with pytest.raises(ValueError) as refused:
            coordinator.sweep(["gemm"], selections=selections)
        assert named in str(refused.value)
        assert coordinator.last_report == {}  # nothing was partitioned into jobs

    def test_distinct_selections_still_answer(self, service):
        result = _explore(service, selections=[["m", "n", "k"], ["k", "n", "m"]],
                          per_selection_limit=1)
        assert len(result.points) == 2 and not result.failures, result


class TestResolveOptions:
    """Name resolution refuses what the docs say it refuses: ``bound`` and
    ``limit`` of wrong type or range, and oversized or wrong-typed
    ``names``, with one validator behind ``/v1/evaluate`` (a resolve-stage
    failure) and ``/v1/evaluate_names`` (a 400)."""

    GEMM = {"workload": "gemm", "extents": {"m": 4, "n": 4, "k": 4}}
    BAD_BOUNDS = [True, 1.9, "1", 0, 3, None]
    BAD_LIMITS = [0, -3, True, 10**9, "abc", 1.5, "24", None]

    def _evaluate(self, service, **options):
        request = DesignRequest(dataflow="MNK-SST", options=options, **self.GEMM)
        status, raw = _post(service, "/v1/evaluate", request.to_json().encode())
        assert status == 200, raw
        return json.loads(raw)

    def _evaluate_names(self, service, **fields):
        body = json.dumps(dict(self.GEMM, **fields)).encode()
        status, raw = _post(service, "/v1/evaluate_names", body)
        return status, json.loads(raw)

    @pytest.mark.parametrize("resolve", ["simplest", "best"])
    @pytest.mark.parametrize(
        "field, value",
        [("bound", v) for v in BAD_BOUNDS] + [("limit", v) for v in BAD_LIMITS],
    )
    def test_evaluate_refuses_as_a_resolve_failure(self, service, field, value, resolve):
        payload = self._evaluate(service, resolve=resolve, **{field: value})
        assert payload["ok"] is False
        assert payload["failure_stage"] == "resolve"
        assert field in payload["failure_reason"]

    @pytest.mark.parametrize(
        "field, value",
        [("bound", v) for v in BAD_BOUNDS] + [("limit", v) for v in BAD_LIMITS],
    )
    def test_evaluate_names_refuses_with_400(self, service, field, value):
        status, payload = self._evaluate_names(service, names=["MNK-SST"], **{field: value})
        assert status == 400
        assert payload["error_type"] == "ValueError"
        assert field in payload["error"]

    @pytest.mark.parametrize(
        "names",
        [
            ["MNK-SST"] * (MAX_NAMES + 1),
            "MNK-SST",
            {"MNK-SST": 1},
            [["MNK-SST"]],
            ["MNK-SST", 7],
            None,
        ],
    )
    def test_evaluate_names_refuses_bad_names_with_400(self, service, names):
        status, payload = self._evaluate_names(service, names=names)
        assert status == 400
        assert payload["error_type"] == "ValueError"
        assert "names" in payload["error"]

    @pytest.mark.parametrize("limit", [1, MAX_RESOLVE_LIMIT])
    def test_valid_limits_still_answer(self, service, limit):
        payload = self._evaluate(service, resolve="best", bound=1, limit=limit)
        assert payload["ok"] is True, payload
        status, payload = self._evaluate_names(
            service, names=["MNK-SST"], bound=1, limit=limit
        )
        assert status == 200, payload
        assert [name for name, _ in payload["results"]] == ["MNK-SST"]

    def test_no_names_is_an_empty_answer(self, service):
        assert self._evaluate_names(service) == (200, {"results": []})

    def test_validator_unit_contract(self):
        from repro.api.types import check_resolve_options

        check_resolve_options(bound=2, limit=MAX_RESOLVE_LIMIT)
        check_resolve_options(bound=1, limit=1, names=["MNK-SST"] * MAX_NAMES)
        check_resolve_options(bound=1, limit=24, names=[])
        for bound in self.BAD_BOUNDS:
            with pytest.raises(ValueError, match="bound"):
                check_resolve_options(bound=bound, limit=24)
        for limit in self.BAD_LIMITS + [MAX_RESOLVE_LIMIT + 1]:
            with pytest.raises(ValueError, match="limit"):
                check_resolve_options(bound=1, limit=limit)
        with pytest.raises(ValueError, match="names"):
            check_resolve_options(bound=1, limit=24, names=["x"] * (MAX_NAMES + 1))


class TestSimTileOption:
    """The ``sim`` backend's ``tile`` option arrives from outside and goes
    into ``StagePlan(tile=)``.  Anything but a mapping of exactly the
    selected loops to ``int`` extents in ``1..extent`` is a structured
    ``sim``-stage failure naming the loop, never an exception escaping the
    backend, which would abort a whole ``evaluate_many`` batch."""

    GEMM = {"workload": "gemm", "dataflow": "MNK-SST", "extents": {"m": 4, "n": 4, "k": 4}}
    BAD_TILES = [
        pytest.param({"m": 2}, "'n'", id="missing-loop"),
        pytest.param("2", "tile", id="string"),
        pytest.param([2, 2, 4], "tile", id="list"),
        pytest.param({"m": 2.5, "n": 2, "k": 4}, "'m'", id="float"),
        pytest.param({"m": True, "n": 2, "k": 4}, "'m'", id="bool"),
        pytest.param({"m": 2, "n": "2", "k": 4}, "'n'", id="string-extent"),
        pytest.param({"m": 2, "n": 2, "k": 4, "z": 1}, "'z'", id="unknown-loop"),
        pytest.param({"m": 0, "n": 2, "k": 4}, "'m'", id="zero"),
        pytest.param({"m": 2, "n": 2, "k": 5}, "'k'", id="past-extent"),
    ]

    def _request(self, tile=None):
        options = {} if tile is None else {"tile": tile}
        return DesignRequest(backend="sim", options=options, **self.GEMM).to_dict()

    @staticmethod
    def _assert_sim_failure(payload, named):
        assert payload["ok"] is False, payload
        assert payload["failure_stage"] == "sim"
        assert payload["failure_reason"].startswith("ValueError")
        assert named in payload["failure_reason"]

    @pytest.mark.parametrize("tile, named", BAD_TILES)
    def test_evaluate_refuses_as_a_sim_failure(self, service, tile, named):
        status, raw = _post(service, "/v1/evaluate", json.dumps(self._request(tile)).encode())
        assert status == 200, raw
        self._assert_sim_failure(json.loads(raw), named)

    def test_one_bad_tile_does_not_abort_a_batch(self, service):
        body = {"requests": [self._request({"m": 2, "n": 2, "k": 4}), self._request({"m": 2})]}
        status, raw = _post(service, "/v1/evaluate_many", json.dumps(body).encode())
        assert status == 200, raw
        good, bad = json.loads(raw)["results"]
        assert good["ok"] is True, good
        self._assert_sim_failure(bad, "'n'")


class TestArrayLimits:
    """Every route that takes an ``array`` checks it with one validator
    (``repro.api.types.array_from_dict``) before any model runs."""

    EXTENTS = {"m": 4, "n": 4, "k": 4}

    def _bodies(self, array):
        request = DesignRequest(
            workload="gemm", dataflow="MNK-SST", extents=self.EXTENTS
        ).to_dict()
        request["array"] = array
        statement = {"workload": "gemm", "extents": self.EXTENTS}
        return {
            "/v1/evaluate": request,
            "/v1/evaluate_many": {"requests": [request]},
            "/v1/evaluate_names": dict(statement, names=["MNK-SST"], array=array),
            "/v1/jobs": {"workloads": ["gemm"], "extents": self.EXTENTS, "configs": [array]},
        }

    def _assert_refused(self, service, array, field):
        for path, body in self._bodies(array).items():
            status, raw = _post(service, path, json.dumps(body).encode())
            assert status == 400, (path, array, status, raw)
            payload = json.loads(raw)
            assert payload["error_type"] == "ValueError", (path, payload)
            assert field in payload["error"], (path, payload)

    @pytest.mark.parametrize(
        "value", [0, -1, 65, 10**6, True, "16", 1.5, float("nan"), float("inf")]
    )
    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_bad_dimension_is_400_on_every_route(self, service, field, value):
        self._assert_refused(service, {"rows": 2, "cols": 2, field: value}, field)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dtype_bytes", 0),
            ("dtype_bytes", -1),
            ("dtype_bytes", 1.5),
            ("dtype_bytes", True),
            ("dtype_bytes", "2"),
            ("freq_mhz", 0),
            ("freq_mhz", -320.0),
            ("freq_mhz", float("nan")),
            ("freq_mhz", float("inf")),
            ("freq_mhz", True),
            ("freq_mhz", "320"),
            ("onchip_bw_gbps", 0),
            ("onchip_bw_gbps", float("-inf")),
            ("onchip_bw_gbps", None),
        ],
    )
    def test_bad_rate_or_width_is_400_on_every_route(self, service, field, value):
        # freq_mhz 0 and dtype_bytes 0 used to escape as a 500 ZeroDivisionError
        self._assert_refused(service, {"rows": 2, "cols": 2, field: value}, field)

    def test_unknown_field_or_non_object_is_400(self, service):
        self._assert_refused(service, {"rows": 2, "cols": 2, "depth": 3}, "depth")
        self._assert_refused(service, [2, 2], "array")

    def test_largest_array_still_answers_200(self, service):
        request = DesignRequest(
            workload="gemm",
            dataflow="MNK-SST",
            extents={"m": 64, "n": 64, "k": 8},
            array=ArrayConfig(rows=64, cols=64),
        )
        status, raw = _post(service, "/v1/evaluate", request.to_json().encode())
        assert status == 200, raw
        payload = json.loads(raw)
        assert payload["ok"] is True
        assert 0 < payload["metrics"]["normalized_perf"] <= 1

    def test_validator_unit_contract(self):
        from repro.api.types import MAX_ARRAY_DIM, array_from_dict

        assert array_from_dict({}) == ArrayConfig()
        edge = {"rows": MAX_ARRAY_DIM, "cols": 1, "freq_mhz": 100, "dtype_bytes": 1}
        assert array_from_dict(edge) == ArrayConfig(**edge)
        assert wire.array_from_dict is array_from_dict
        with pytest.raises(ValueError, match="rows"):
            array_from_dict({"rows": MAX_ARRAY_DIM + 1})
        with pytest.raises(ValueError, match="rows"):
            DesignRequest.from_dict(
                dict(DesignRequest(workload="gemm", dataflow="MNK-SST").to_dict(),
                     array={"rows": 0})
            )
