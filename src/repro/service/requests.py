"""The transport-agnostic request/response layer of the serving stack.

Every way of asking the serving layer a question — the in-process
:meth:`SimilarityService.query`, the asyncio network front-end in
:mod:`repro.serve`, a future transport — speaks the three types defined
here:

* :class:`QueryRequest` — one top-k similarity question, with its per-query
  policy (ranking length, approximate-tier opt-in, freshness floor);
* :class:`QueryResponse` — one answered ranking, stamped with the tier that
  produced it and the graph version it is exact (or estimated) against;
* :class:`ServeError` — one typed failure, with a stable :class:`ErrorCode`
  shared by in-process and network callers.

All three are frozen dataclasses with a lossless wire form
(:meth:`~QueryRequest.to_wire` / :meth:`~QueryRequest.from_wire`): flat JSON
objects carrying an ``op`` tag and a protocol ``v``ersion field, so the
network protocol is nothing but these dicts behind a length prefix
(:mod:`repro.serve.protocol`) and the in-process path is the same pipeline
minus the framing.  The schema is versioned — a peer speaking a different
:data:`PROTOCOL_VERSION` is rejected with a typed error instead of a parse
failure — and strict: unknown wire keys raise, a typo must never silently
become a default.

This module is intentionally the *bottom* of the serving stack: it imports
no service, engine or transport code, so any layer may depend on it without
cycles.  New transports extend the system by speaking these types; they
should not grow their own request shapes (see CONTRIBUTING.md).
"""

from __future__ import annotations

import enum
from collections.abc import Hashable
from dataclasses import dataclass, replace
from typing import Optional, Union

from ..baselines.topk import RankedList
from ..exceptions import ConfigurationError, ReproError, VertexNotFoundError

__all__ = [
    "PROTOCOL_VERSION",
    "ErrorCode",
    "QueryRequest",
    "QueryResponse",
    "ServeError",
]

PROTOCOL_VERSION = 2
"""Version of the request/response schema.  Bumped on any incompatible
change; both sides of a connection must agree (a mismatch is a typed
:data:`ErrorCode.UNSUPPORTED_VERSION` error, not a parse failure).

Version 2 added the ``trace`` request field (opt-in span-tree capture)
and the matching ``trace`` response field carrying the serialised tree —
a schema change, and the request schema is strict, hence the bump."""


class ErrorCode(str, enum.Enum):
    """Stable failure codes shared by in-process and network callers.

    The string values are the wire encoding; they are part of the protocol
    and must never be renamed.  ``retryable`` distinguishes load/lifecycle
    conditions (retry later, possibly elsewhere) from request defects
    (retrying the same request can never succeed).
    """

    BAD_REQUEST = "bad_request"
    """The request itself is malformed (non-positive k, bad types, ...)."""

    UNSUPPORTED_VERSION = "unsupported_version"
    """The request speaks a different protocol version than the server."""

    UNKNOWN_VERTEX = "unknown_vertex"
    """The query label does not name a vertex of the served graph."""

    STALE_VERSION = "stale_version"
    """The request demanded ``graph_version >= v`` but the service is older."""

    SHED = "shed"
    """Admission control rejected the request under load; retry later."""

    POOL_FAILURE = "pool_failure"
    """The worker pool died and the serial fallback failed too."""

    UNAVAILABLE = "unavailable"
    """The server is shutting down or the connection died mid-request."""

    INTERNAL = "internal"
    """An unexpected failure; the message carries the original error."""

    @property
    def retryable(self) -> bool:
        """Whether retrying the same request later can succeed."""
        return self in _RETRYABLE


_RETRYABLE = frozenset(
    {
        ErrorCode.STALE_VERSION,
        ErrorCode.SHED,
        ErrorCode.POOL_FAILURE,
        ErrorCode.UNAVAILABLE,
    }
)

_WIRE_QUERY_TYPES = (str, int)
"""Label types representable in the wire schema (JSON object keys aside,
arbitrary hashables only exist in process)."""


class ServeError(ReproError):
    """A typed serving-path failure, identical in process and on the wire.

    Parameters
    ----------
    code:
        The stable :class:`ErrorCode` (a code's string value is accepted
        too, so ``from_wire`` and hand-written callers agree).
    message:
        Human-readable detail; never parsed, safe to extend.
    request_id:
        The id of the request this error answers, when there is one — the
        network protocol uses it to route the error to its caller.
    """

    def __init__(
        self,
        code: Union[ErrorCode, str],
        message: str,
        *,
        request_id: Optional[int] = None,
    ) -> None:
        code = ErrorCode(code)
        super().__init__(f"[{code.value}] {message}")
        self.code = code
        self.detail = message
        self.request_id = request_id

    @property
    def retryable(self) -> bool:
        """Whether retrying the same request later can succeed."""
        return self.code.retryable

    def with_request_id(self, request_id: Optional[int]) -> "ServeError":
        """A copy answering a specific request (wire routing)."""
        return ServeError(self.code, self.detail, request_id=request_id)

    # -------------------------------------------------------------- #
    # Wire form
    # -------------------------------------------------------------- #
    def to_wire(self) -> dict:
        """The flat JSON-serialisable form (``op: "error"``)."""
        payload: dict = {
            "op": "error",
            "v": PROTOCOL_VERSION,
            "code": self.code.value,
            "message": self.detail,
        }
        if self.request_id is not None:
            payload["id"] = int(self.request_id)
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "ServeError":
        """Rebuild from :meth:`to_wire` output; malformed payloads raise."""
        if payload.get("op") != "error":
            raise cls(
                ErrorCode.BAD_REQUEST,
                f"expected an error payload, got op={payload.get('op')!r}",
            )
        try:
            code = ErrorCode(payload["code"])
        except (KeyError, ValueError):
            raise cls(
                ErrorCode.BAD_REQUEST,
                f"unknown error code {payload.get('code')!r}",
            ) from None
        return cls(
            code,
            str(payload.get("message", "")),
            request_id=payload.get("id"),
        )

    # -------------------------------------------------------------- #
    # Mapping arbitrary exceptions onto codes
    # -------------------------------------------------------------- #
    @classmethod
    def wrap(
        cls, error: BaseException, *, request_id: Optional[int] = None
    ) -> "ServeError":
        """Map an arbitrary serving-path exception onto a typed code.

        Vertex lookups become
        :data:`ErrorCode.UNKNOWN_VERTEX`, parameter validation becomes
        :data:`ErrorCode.BAD_REQUEST`, a dead worker pool becomes
        :data:`ErrorCode.POOL_FAILURE`, everything else is
        :data:`ErrorCode.INTERNAL` with the original message preserved.
        """
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(error, ServeError):
            if request_id is not None and error.request_id != request_id:
                return error.with_request_id(request_id)
            return error
        if isinstance(error, VertexNotFoundError):
            return cls(
                ErrorCode.UNKNOWN_VERTEX,
                str(error.args[0]) if error.args else str(error),
                request_id=request_id,
            )
        if isinstance(error, (ConfigurationError, TypeError, ValueError)):
            return cls(
                ErrorCode.BAD_REQUEST, str(error), request_id=request_id
            )
        if isinstance(error, BrokenProcessPool):
            return cls(
                ErrorCode.POOL_FAILURE, str(error), request_id=request_id
            )
        return cls(
            ErrorCode.INTERNAL,
            f"{type(error).__name__}: {error}",
            request_id=request_id,
        )


@dataclass(frozen=True)
class QueryRequest:
    """One top-k similarity question, transport-agnostic.

    Attributes
    ----------
    query:
        The query vertex label (any hashable in process; ``str``/``int``
        on the wire).
    k:
        Ranking length; ``None`` uses the service default.
    approx:
        Monte-Carlo tier policy: ``True`` opts in, ``False`` pins the query
        exact (SLO-driven degradation will not loosen it), ``None`` leaves
        the decision to ``max_error`` and the server's live-latency
        controller.
    max_error:
        Standard-error bound admitting the approximate tier when the
        attached fingerprints satisfy it.
    graph_version:
        Freshness floor: the service must be at least this graph version,
        otherwise the request fails with :data:`ErrorCode.STALE_VERSION`
        (read-your-writes for callers that just mutated the graph).
    request_id:
        Caller-assigned correlation id; the network clients use it to match
        pipelined responses to requests.
    trace:
        Opt-in request tracing: when ``True`` the serving path records a
        span tree (admission → tier probe → batcher → kernel) and attaches
        it to the response.  Off by default — the untraced path must stay
        overhead-free.
    version:
        Protocol schema version; requests from a different version are
        rejected with a typed error.
    """

    query: Hashable
    k: Optional[int] = None
    approx: Optional[bool] = None
    max_error: Optional[float] = None
    graph_version: Optional[int] = None
    request_id: Optional[int] = None
    trace: bool = False
    version: int = PROTOCOL_VERSION

    # -------------------------------------------------------------- #
    # Validation
    # -------------------------------------------------------------- #
    def validated(self) -> "QueryRequest":
        """This request, checked; violations raise typed :class:`ServeError`."""
        rid = self.request_id
        if rid is not None and (isinstance(rid, bool) or not isinstance(rid, int)):
            raise ServeError(
                ErrorCode.BAD_REQUEST, f"request_id must be an int, got {rid!r}"
            )
        if self.version != PROTOCOL_VERSION:
            raise ServeError(
                ErrorCode.UNSUPPORTED_VERSION,
                f"protocol version {self.version!r} not supported "
                f"(this side speaks {PROTOCOL_VERSION})",
                request_id=rid,
            )
        if self.query is None:
            raise ServeError(
                ErrorCode.BAD_REQUEST, "query must name a vertex, got None",
                request_id=rid,
            )
        if self.k is not None and (
            isinstance(self.k, bool) or not isinstance(self.k, int) or self.k <= 0
        ):
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                f"k must be a positive int or None, got {self.k!r}",
                request_id=rid,
            )
        if self.approx is not None and not isinstance(self.approx, bool):
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                f"approx must be a bool or None, got {self.approx!r}",
                request_id=rid,
            )
        if self.max_error is not None:
            if not isinstance(self.max_error, (int, float)) or isinstance(
                self.max_error, bool
            ) or not self.max_error > 0:
                raise ServeError(
                    ErrorCode.BAD_REQUEST,
                    f"max_error must be positive, got {self.max_error!r}",
                    request_id=rid,
                )
        gv = self.graph_version
        if gv is not None and (
            isinstance(gv, bool) or not isinstance(gv, int) or gv < 0
        ):
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                f"graph_version must be a non-negative int, got {gv!r}",
                request_id=rid,
            )
        if not isinstance(self.trace, bool):
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                f"trace must be a bool, got {self.trace!r}",
                request_id=rid,
            )
        return self

    def with_request_id(self, request_id: int) -> "QueryRequest":
        """A copy carrying a transport-assigned correlation id."""
        return replace(self, request_id=request_id)

    # -------------------------------------------------------------- #
    # Wire form
    # -------------------------------------------------------------- #
    def to_wire(self) -> dict:
        """The flat JSON-serialisable form (``op: "query"``).

        ``None`` fields are omitted — absent and default are the same
        thing, which keeps frames small and the schema forward-readable.
        """
        if not isinstance(self.query, _WIRE_QUERY_TYPES) or isinstance(
            self.query, bool
        ):
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                "only str/int query labels are wire-serialisable, got "
                f"{type(self.query).__name__}",
                request_id=self.request_id,
            )
        payload: dict = {"op": "query", "v": self.version, "query": self.query}
        for name, key in (
            ("k", "k"),
            ("approx", "approx"),
            ("max_error", "max_error"),
            ("graph_version", "graph_version"),
            ("request_id", "id"),
        ):
            value = getattr(self, name)
            if value is not None:
                payload[key] = value
        if self.trace:
            payload["trace"] = True
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "QueryRequest":
        """Rebuild (and validate) a request from its wire form.

        The schema is strict: unknown keys raise
        :data:`ErrorCode.BAD_REQUEST` — a misspelt field must fail loudly,
        not silently serve with defaults.
        """
        if not isinstance(payload, dict) or payload.get("op") != "query":
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                f"expected a query payload, got op={payload.get('op')!r}"
                if isinstance(payload, dict)
                else f"expected an object, got {type(payload).__name__}",
            )
        known = {"op", "v", "query", "k", "approx", "max_error",
                 "graph_version", "id", "trace"}
        unknown = set(payload) - known
        if unknown:
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                f"unknown request fields: {', '.join(sorted(map(str, unknown)))}",
                request_id=payload.get("id")
                if isinstance(payload.get("id"), int)
                else None,
            )
        if "query" not in payload:
            raise ServeError(ErrorCode.BAD_REQUEST, "request has no query field")
        query = payload["query"]
        if not isinstance(query, _WIRE_QUERY_TYPES) or isinstance(query, bool):
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                f"query must be a str or int label, got {type(query).__name__}",
            )
        return cls(
            query=query,
            k=payload.get("k"),
            approx=payload.get("approx"),
            max_error=payload.get("max_error"),
            graph_version=payload.get("graph_version"),
            request_id=payload.get("id"),
            trace=payload.get("trace", False),
            version=payload.get("v", -1),
        ).validated()


@dataclass(frozen=True)
class QueryResponse:
    """One answered ranking, stamped with its provenance.

    Attributes
    ----------
    query:
        The query label, echoed back.
    entries:
        The ``(label, score)`` ranking, highest score first with the
        service's ``(-score, id)`` tie-breaking — identical across tiers
        for exact answers.
    tier:
        Which tier answered (``"cache"``/``"index"``/``"approx"``/
        ``"compute"``) — the observable the SLO benchmarks and the
        degradation acceptance checks read.
    graph_version:
        The service graph version the answer reflects.
    request_id:
        Correlation id, echoed from the request.
    trace:
        The serialised span tree for a traced request (``None`` otherwise);
        see :mod:`repro.obs.tracing` for the tree schema.
    version:
        Protocol schema version.
    """

    query: Hashable
    entries: tuple[tuple[Hashable, float], ...]
    tier: str
    graph_version: int
    request_id: Optional[int] = None
    trace: Optional[dict] = None
    version: int = PROTOCOL_VERSION

    def ranking(self) -> RankedList:
        """The answer as the classic :class:`~repro.baselines.topk.RankedList`."""
        return RankedList(query=self.query, entries=tuple(self.entries))

    def labels(self) -> list[Hashable]:
        """Just the ranked labels (mirrors ``RankedList.labels``)."""
        return [label for label, _ in self.entries]

    # -------------------------------------------------------------- #
    # Wire form
    # -------------------------------------------------------------- #
    def to_wire(self) -> dict:
        """The flat JSON-serialisable form (``op: "result"``)."""
        payload: dict = {
            "op": "result",
            "v": self.version,
            "query": _wire_label(self.query),
            "tier": self.tier,
            "graph_version": int(self.graph_version),
            "entries": [
                [_wire_label(label), float(score)] for label, score in self.entries
            ],
        }
        if self.request_id is not None:
            payload["id"] = int(self.request_id)
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "QueryResponse":
        """Rebuild a response from its wire form; malformed payloads raise."""
        if not isinstance(payload, dict) or payload.get("op") != "result":
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                f"expected a result payload, got op={payload.get('op')!r}"
                if isinstance(payload, dict)
                else f"expected an object, got {type(payload).__name__}",
            )
        try:
            entries = tuple(
                (label, float(score)) for label, score in payload["entries"]
            )
            return cls(
                query=payload["query"],
                entries=entries,
                tier=str(payload["tier"]),
                graph_version=int(payload["graph_version"]),
                request_id=payload.get("id"),
                trace=payload.get("trace"),
                version=int(payload.get("v", PROTOCOL_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ServeError(
                ErrorCode.BAD_REQUEST, f"malformed result payload: {error}"
            ) from None


def _wire_label(label: Hashable):
    """Coerce a vertex label to its JSON-representable form.

    Graph labels are Python/NumPy ints or strings in every shipped graph
    type; NumPy scalars are not JSON-serialisable and are unwrapped here.
    """
    if isinstance(label, str):
        return label
    try:
        return int(label)  # covers np.integer and int
    except (TypeError, ValueError):
        raise ServeError(
            ErrorCode.INTERNAL,
            f"label {label!r} is not wire-serialisable",
        ) from None
