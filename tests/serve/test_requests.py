"""The transport-agnostic request/response layer: schema, codes, interop."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, VertexNotFoundError
from repro.service.requests import (
    PROTOCOL_VERSION,
    ErrorCode,
    QueryRequest,
    QueryResponse,
    ServeError,
)


class TestQueryRequest:
    def test_wire_round_trip_preserves_every_field(self):
        request = QueryRequest(
            query="author-3",
            k=5,
            approx=True,
            max_error=0.05,
            graph_version=2,
            request_id=17,
        )
        assert QueryRequest.from_wire(request.to_wire()) == request

    def test_wire_form_omits_none_fields(self):
        payload = QueryRequest(query=4).to_wire()
        assert payload == {"op": "query", "v": PROTOCOL_VERSION, "query": 4}

    def test_unknown_wire_keys_rejected(self):
        payload = QueryRequest(query=4).to_wire()
        payload["aprox"] = True  # the typo strictness exists to catch
        with pytest.raises(ServeError) as excinfo:
            QueryRequest.from_wire(payload)
        assert excinfo.value.code is ErrorCode.BAD_REQUEST
        assert "aprox" in str(excinfo.value)

    def test_version_mismatch_is_typed(self):
        payload = QueryRequest(query=4).to_wire()
        payload["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ServeError) as excinfo:
            QueryRequest.from_wire(payload)
        assert excinfo.value.code is ErrorCode.UNSUPPORTED_VERSION

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": -3},
            {"k": True},
            {"k": 2.5},
            {"approx": 1},
            {"max_error": 0.0},
            {"max_error": -1.0},
            {"graph_version": -1},
            {"graph_version": True},
            {"request_id": "seven"},
        ],
    )
    def test_validated_rejects_malformed_fields(self, kwargs):
        with pytest.raises(ServeError) as excinfo:
            QueryRequest(query=1, **kwargs).validated()
        assert excinfo.value.code is ErrorCode.BAD_REQUEST

    def test_missing_query_rejected(self):
        with pytest.raises(ServeError):
            QueryRequest.from_wire({"op": "query", "v": PROTOCOL_VERSION})
        with pytest.raises(ServeError):
            QueryRequest(query=None).validated()

    def test_non_wire_label_rejected_at_serialisation(self):
        with pytest.raises(ServeError):
            QueryRequest(query=(1, 2)).to_wire()

    @settings(max_examples=200, deadline=None)
    @given(
        query=st.one_of(
            st.integers(-(2**31), 2**31), st.text(max_size=40)
        ),
        k=st.one_of(st.none(), st.integers(1, 1000)),
        approx=st.one_of(st.none(), st.booleans()),
        max_error=st.one_of(
            st.none(), st.floats(min_value=1e-9, max_value=10.0)
        ),
        graph_version=st.one_of(st.none(), st.integers(0, 2**31)),
        request_id=st.one_of(st.none(), st.integers(-(2**31), 2**31)),
    )
    def test_fuzz_round_trip(
        self, query, k, approx, max_error, graph_version, request_id
    ):
        request = QueryRequest(
            query=query,
            k=k,
            approx=approx,
            max_error=max_error,
            graph_version=graph_version,
            request_id=request_id,
        )
        # Through real JSON, like the socket path does.
        payload = json.loads(json.dumps(request.to_wire()))
        assert QueryRequest.from_wire(payload) == request

    @settings(max_examples=200, deadline=None)
    @given(
        payload=st.dictionaries(
            st.text(max_size=10),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-(2**40), 2**40),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=20),
            ),
            max_size=6,
        )
    )
    def test_fuzz_malformed_payloads_raise_typed_errors_only(self, payload):
        # Whatever a peer sends, the failure mode is a typed ServeError —
        # never a KeyError/TypeError leaking out of the parser.
        try:
            request = QueryRequest.from_wire(payload)
        except ServeError:
            pass
        else:
            assert request.validated() == request


class TestQueryResponse:
    def test_wire_round_trip(self):
        response = QueryResponse(
            query=7,
            entries=((3, 0.25), (9, 0.125)),
            tier="index",
            graph_version=1,
            request_id=4,
        )
        assert QueryResponse.from_wire(
            json.loads(json.dumps(response.to_wire()))
        ) == response

    def test_scores_survive_json_exactly(self):
        # repr round-tripping makes JSON floats lossless; oracle-identity
        # comparisons in the benchmarks rely on it.
        score = 0.1 + 0.2 + 1e-17
        response = QueryResponse(
            query=1, entries=((2, score),), tier="compute", graph_version=0
        )
        back = QueryResponse.from_wire(json.loads(json.dumps(response.to_wire())))
        assert back.entries[0][1] == score

    def test_ranking_and_labels(self):
        response = QueryResponse(
            query=7,
            entries=((3, 0.25), (9, 0.125)),
            tier="cache",
            graph_version=0,
        )
        assert response.labels() == [3, 9]
        ranking = response.ranking()
        assert ranking.query == 7
        assert ranking.entries == ((3, 0.25), (9, 0.125))

    def test_malformed_payload_is_typed(self):
        with pytest.raises(ServeError):
            QueryResponse.from_wire({"op": "result", "v": 1})


class TestServeError:
    def test_wire_round_trip(self):
        error = ServeError(
            ErrorCode.SHED, "over capacity", request_id=9
        )
        back = ServeError.from_wire(error.to_wire())
        assert back.code is ErrorCode.SHED
        assert back.detail == "over capacity"
        assert back.request_id == 9

    def test_retryable_codes(self):
        assert ServeError(ErrorCode.SHED, "x").retryable
        assert ServeError(ErrorCode.UNAVAILABLE, "x").retryable
        assert ServeError(ErrorCode.STALE_VERSION, "x").retryable
        assert not ServeError(ErrorCode.BAD_REQUEST, "x").retryable
        assert not ServeError(ErrorCode.UNKNOWN_VERTEX, "x").retryable

    def test_wrap_maps_legacy_exceptions_onto_codes(self):
        wrapped = ServeError.wrap(VertexNotFoundError("ghost"))
        assert wrapped.code is ErrorCode.UNKNOWN_VERTEX
        assert ServeError.wrap(ConfigurationError("bad k")).code is (
            ErrorCode.BAD_REQUEST
        )
        assert ServeError.wrap(ValueError("nope")).code is ErrorCode.BAD_REQUEST
        internal = ServeError.wrap(OSError("disk on fire"))
        assert internal.code is ErrorCode.INTERNAL
        assert "disk on fire" in internal.detail

    def test_wrap_reassigns_request_id_on_existing_serve_error(self):
        error = ServeError(ErrorCode.SHED, "x", request_id=1)
        assert ServeError.wrap(error, request_id=2).request_id == 2
        assert ServeError.wrap(error).request_id == 1

    def test_message_carries_code_prefix(self):
        assert str(ServeError(ErrorCode.SHED, "busy")).startswith("[shed]")
