"""Driver development kit.

The paper's minimal-driver recipe (§3.2.1) requires implementing a small
subset of the JDBC surface plus, "typically implemented in separate
classes within the driver":

* a class to parse the SQL query strings (supplied as part of a GridRM
  driver development API) — here :func:`repro.sql.parser.parse_select`;
* a class to perform mapping of data requests to the data source based on
  the naming schema — here :class:`repro.glue.mapping.SchemaMapping`,
  fetched from the gateway's SchemaManager at connection time;
* code to interact with the data source agent via native protocols;
* code to translate result data into the format required by GLUE.

:class:`GridRmDriver` / :class:`GridRmConnection` / :class:`GridRmStatement`
implement everything except the native protocol itself, which each
concrete driver supplies as two *conversations* — generators that yield
native request payloads, receive each reply, and return a value:

* ``hello(url)`` — the liveness probe: yield one cheap request, return
  whether the reply looks like this driver's agent;
* ``exchange(url, group, select)`` — return native records for one GLUE
  group.

A conversation performs no I/O.  :meth:`GridRmDriver.converse` drives it:
the one place a request is sent, and the one place an agent's reply
crosses into trusted code — whatever a conversation (or the GLUE mapping
over its records) raises that is not already typed becomes
:class:`~repro.dbapi.exceptions.SQLDataException`.

Per-driver caching policy (§3.3: "implementations should address these
issues by using caching policies within the plug-in, as appropriate for
the characteristics of a particular type of data source") is provided by
:class:`ResponseCache`, a virtual-clock TTL cache coarse-grained drivers
wrap around their expensive full-dump fetches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Generator, Mapping, Sequence

from repro.core.errors import GridRmError
from repro.dbapi.exceptions import (
    SQLConnectionException,
    SQLDataException,
    SQLException,
    SQLSyntaxErrorException,
    SQLTimeoutException,
)
from repro.dbapi.interfaces import (
    Connection,
    DatabaseMetaData,
    Driver,
    ResultSet,
    Statement,
)
from repro.dbapi.resultset import ListResultSet
from repro.dbapi.url import JdbcUrl
from repro.glue.mapping import SchemaMapping
from repro.glue.schema import GlueSchema, STANDARD_SCHEMA
from repro.simnet.errors import NetworkError, PortClosedError, TimeoutError_
from repro.simnet.network import Address, Network
from repro.sql import ast_nodes as sql_ast
from repro.sql.errors import SqlError
from repro.sql.parser import parse_select
from repro.sql.plan import CompiledPlan, compile_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deadline import Deadline

#: Default TTL for coarse-grained response caches, virtual seconds.
DEFAULT_CACHE_TTL = 15.0


class ResponseCache:
    """A tiny TTL cache keyed on arbitrary hashables, over virtual time."""

    def __init__(self, network: Network, ttl: float = DEFAULT_CACHE_TTL) -> None:
        if ttl < 0:
            raise ValueError(f"negative ttl: {ttl!r}")
        self.network = network
        self.ttl = ttl
        self._entries: dict[Any, tuple[float, Any]] = {}
        self.hits = 0
        self.misses = 0

    def get_or_fetch(self, key: Any, fetch: Callable[[], Any]) -> Any:
        now = self.network.clock.now()
        entry = self._entries.get(key)
        if entry is not None and self.ttl > 0 and now - entry[0] <= self.ttl:
            self.hits += 1
            return entry[1]
        self.misses += 1
        value = fetch()
        self._entries[key] = (now, value)
        return value

    def invalidate(self, key: Any = None) -> None:
        if key is None:
            self._entries.clear()
        else:
            self._entries.pop(key, None)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _MappingHandle:
    """The connection's cached schema mapping plus its version stamp.

    Paper Figure 5: "Schema is cached when the connection is created.
    Statement checks cache consistency before using schema instance."
    """

    mapping: SchemaMapping
    version: int


class GridRmStatement(Statement):
    """Statement: parse SQL, fetch native records, translate, filter."""

    def __init__(self, connection: "GridRmConnection") -> None:
        self._connection = connection
        self._closed = False
        self._timeout: float | None = None

    def execute_query(
        self, sql: str, plan: CompiledPlan | None = None
    ) -> ResultSet:
        """Parse, fetch, translate, filter.

        ``plan`` hands down a :class:`repro.sql.plan.CompiledPlan`
        already compiled for this exact ``sql`` (the gateway's plan
        cache does), skipping the parse.  Callers that only have raw SQL
        (standalone JDBC-style use) omit it; the statement compiles one
        and runs the same executor over positional rows straight out of
        the mapping layer — no per-row dicts, no per-row copies.
        """
        if self._closed:
            raise SQLException("statement is closed")
        conn = self._connection
        if conn.is_closed():
            raise SQLConnectionException("connection is closed")
        if not plan:
            try:
                plan = compile_plan(parse_select(sql))
            except SqlError as exc:
                raise SQLSyntaxErrorException(str(exc), cause=exc) from exc
        select = plan.select
        if select.is_join:
            raise SQLException(
                "drivers serve one GLUE group per statement; multi-group "
                "queries are joined by the gateway's RequestManager"
            )
        conn.refresh_mapping_if_stale()
        mapping = conn.mapping
        schema = conn.schema
        group_name = select.table
        if not mapping.supports(group_name):
            raise SQLException(
                f"driver {conn.driver.name()!r} does not serve group "
                f"{group_name!r} (supported: {mapping.groups()})"
            )
        group = schema.group(group_name)
        try:
            records = conn.driver.fetch_group(conn, group.name, select)
        except TimeoutError_ as exc:
            raise SQLTimeoutException(str(exc), cause=exc) from exc
        except NetworkError as exc:
            raise SQLConnectionException(str(exc), cause=exc) from exc

        types: Sequence[str] | None = None
        if select.is_star:
            types = group.column_types()
        slot_rows = conn.driver._typed(
            conn.url, mapping.translate_rows, group.name, records, schema
        )
        result = plan.bind(tuple(group.field_names())).execute(slot_rows)
        return ListResultSet.adopt(result.columns, result.rows, types)

    def set_query_timeout(self, seconds: float) -> None:
        if seconds <= 0:
            raise SQLException(f"timeout must be positive: {seconds!r}")
        self._timeout = seconds

    @property
    def query_timeout(self) -> float | None:
        return self._timeout

    def close(self) -> None:
        self._closed = True

    def is_closed(self) -> bool:
        return self._closed


class GridRmDatabaseMetaData(DatabaseMetaData):
    """Connection metadata surfaced by the management console."""

    def __init__(self, connection: "GridRmConnection") -> None:
        self._connection = connection

    def driver_name(self) -> str:
        return self._connection.driver.name()

    def driver_version(self) -> str:
        return self._connection.driver.version()

    def url(self) -> str:
        return str(self._connection.url)

    def get_tables(self) -> list[str]:
        return self._connection.mapping.groups()


class GridRmConnection(Connection):
    """A session with one data source.

    Creating the connection costs a native probe round-trip plus the
    schema-mapping fetch — the overhead the ConnectionManager's pool
    amortises (paper §3.1.2, experiment E1).
    """

    def __init__(
        self,
        driver: "GridRmDriver",
        url: JdbcUrl,
        info: Mapping[str, Any] | None = None,
    ) -> None:
        self.driver = driver
        self.url = url
        self.info = dict(info or {})
        self._closed = False
        self.schema: GlueSchema = self.info.get("schema", STANDARD_SCHEMA)
        self._schema_manager = self.info.get("schema_manager")
        self._mapping_handle = self._fetch_mapping()
        #: Replies to the driver's ``ask_once`` payloads, kept for the life
        #: of this session (see :meth:`GridRmDriver.converse`).
        self.session: dict[Any, Any] = {}
        #: End-to-end deadline of the query currently borrowing this
        #: connection; stamped by the ConnectionManager at acquire time
        #: and cleared at release.  Every native request is clamped to
        #: the remaining budget (see :meth:`request`).
        self.deadline: "Deadline | None" = None
        #: Tracer of the query currently borrowing this connection —
        #: stamped and cleared exactly like :attr:`deadline` — so native
        #: round-trips show up as spans without drivers doing anything.
        self.tracer: Any = None

    # -- schema mapping lifecycle --------------------------------------
    def _fetch_mapping(self) -> _MappingHandle:
        if self._schema_manager is not None:
            mapping = self._schema_manager.mapping_for(
                self.driver.name(), default=self.driver.default_mapping()
            )
            version = self._schema_manager.version
        else:
            mapping = self.driver.default_mapping()
            version = 0
        return _MappingHandle(mapping=mapping, version=version)

    def refresh_mapping_if_stale(self) -> None:
        """Statement-time consistency check against the SchemaManager."""
        if self._schema_manager is None:
            return
        if self._schema_manager.version != self._mapping_handle.version:
            self._mapping_handle = self._fetch_mapping()

    @property
    def mapping(self) -> SchemaMapping:
        return self._mapping_handle.mapping

    # -- Connection interface -------------------------------------------
    def create_statement(self) -> GridRmStatement:
        if self._closed:
            raise SQLConnectionException("connection is closed")
        return GridRmStatement(self)

    def close(self) -> None:
        self._closed = True

    def is_closed(self) -> bool:
        return self._closed

    def is_valid(self, timeout: float = 1.0) -> bool:
        if self._closed:
            return False
        try:
            return self.driver.probe(self.url, timeout=timeout)
        except NetworkError:
            return False

    def get_metadata(self) -> GridRmDatabaseMetaData:
        return GridRmDatabaseMetaData(self)

    # -- helpers for concrete drivers ------------------------------------
    @property
    def network(self) -> Network:
        return self.driver.network

    def agent_address(self) -> Address:
        """The native agent endpoint this connection talks to."""
        return self.driver.address_of(self.url)

    def request(self, payload: Any, *, timeout: float | None = None) -> Any:
        """One native round-trip from the gateway host to the agent.

        When the borrowing query carries a deadline, the native timeout
        is clamped to the remaining budget (and the request fails fast
        with :class:`~repro.core.errors.DeadlineExceededError` once that
        budget is gone) — :meth:`GridRmDriver.converse` routes every
        fetch-path request through here, so drivers honour end-to-end
        deadlines for free.
        """
        deadline = self.deadline
        if deadline is not None:
            base = self.network.DEFAULT_TIMEOUT if timeout is None else timeout
            timeout = deadline.clamp(base, f"native request to {self.url.host}")
        if self.tracer is None:
            return self.network.request(
                self.driver.gateway_host,
                self.agent_address(),
                payload,
                timeout=timeout,
            )
        with self.tracer.span(
            "native", host=self.url.host, protocol=self.driver.protocol
        ) as span:
            if timeout is not None:
                span["timeout"] = timeout
            return self.network.request(
                self.driver.gateway_host,
                self.agent_address(),
                payload,
                timeout=timeout,
            )


def _step(conversation: Generator, reply: Any) -> tuple[bool, Any]:
    """Resume ``conversation`` with ``reply``: (False, next request
    payload) or (True, return value)."""
    try:
        return False, conversation.send(reply)
    except StopIteration as stop:
        return True, stop.value


def _stamp(records: list[dict[str, Any]], site: str | None, started: float) -> list:
    for record in records:
        record.setdefault("_site", site)
        record.setdefault("_time", started)
    return records


class GridRmDriver(Driver):
    """Base class for all GridRM data-source drivers.

    Concrete drivers set :attr:`protocol` and :attr:`default_port`, build
    their GLUE mapping in :meth:`build_mapping`, and describe the native
    protocol as two conversations, :meth:`hello` and :meth:`exchange`.
    :meth:`probe` and :meth:`fetch_group` drive them; a concrete driver
    sends nothing, counts nothing and catches nothing itself.
    """

    #: JDBC subprotocol this driver serves ("snmp", "ganglia", ...).
    protocol = ""
    #: Agent port assumed when the URL does not carry one.
    default_port = 0
    #: Human-readable driver name.
    display_name = "GridRM driver"
    #: Whether a fetch may safely be re-issued (retries, hedging).
    #: Monitoring reads are idempotent; a driver wrapping an agent with
    #: side effects (counters reset on read, one-shot probes) must set
    #: this False to opt out of query-level retries and hedged requests.
    idempotent = True
    #: Request payloads whose reply holds for the life of a connection
    #: (an agent's table of contents): sent once per session, answered
    #: from :attr:`GridRmConnection.session` after that.
    ask_once: tuple[Any, ...] = ()
    #: A coarse-grained driver sets a :class:`ResponseCache` here to say
    #: that one :meth:`exchange` returns records serving *every* group
    #: and query of that agent (a whole-cluster dump); they are then
    #: reused for ``ttl`` virtual seconds.  A failed exchange caches
    #: nothing.
    cache: ResponseCache | None = None

    def __init__(self, network: Network, *, gateway_host: str = "gateway") -> None:
        if not self.protocol:
            raise SQLException(f"{type(self).__name__} must define a protocol")
        self.network = network
        self.gateway_host = gateway_host
        self._mapping: SchemaMapping | None = None
        #: Probe/connect/query counters for the experiments; ``fetches``
        #: counts exchanges run (a response-cache hit runs none).
        self.stats = {"probes": 0, "connects": 0, "fetches": 0}

    # -- Driver interface -------------------------------------------------
    def accepts_url(self, url: JdbcUrl) -> bool:
        """Protocol-pinned URLs match by string; wildcard URLs require a
        live probe of the data source (Table 2's "supports the URL AND can
        connect" semantics)."""
        if not isinstance(url, JdbcUrl):
            raise SQLException(f"expected JdbcUrl, got {type(url).__name__}")
        if url.protocol == self.protocol:
            return True
        if url.is_wildcard:
            try:
                return self.probe(url)
            except NetworkError:
                return False
        return False

    def connect(
        self, url: JdbcUrl | str, info: Mapping[str, Any] | None = None
    ) -> GridRmConnection:
        url = JdbcUrl.parse(url) if isinstance(url, str) else url
        if not url.is_wildcard and url.protocol != self.protocol:
            raise SQLConnectionException(
                f"{self.name()} cannot serve protocol {url.protocol!r}"
            )
        self.stats["connects"] += 1
        # JDBC's login-timeout idiom: a "connect_timeout" connection
        # property bounds the liveness probe, so a caller with little
        # deadline budget left is not stuck paying the full probe
        # timeout to a dead host (the DriverManager sets this from the
        # query's remaining deadline).
        probe_kwargs: dict[str, Any] = {}
        if info is not None and "connect_timeout" in info:
            probe_kwargs["timeout"] = float(info["connect_timeout"])
        try:
            alive = self.probe(url, **probe_kwargs)
        except NetworkError as exc:
            raise SQLConnectionException(
                f"{self.name()}: cannot reach {url.host}: {exc}", cause=exc
            ) from exc
        if not alive:
            raise SQLConnectionException(
                f"{self.name()}: no compatible agent at {url.host}"
            )
        return GridRmConnection(self, url, info)

    def name(self) -> str:
        return self.display_name

    # -- mapping ----------------------------------------------------------
    def default_mapping(self) -> SchemaMapping:
        """The driver's built-in GLUE implementation (built once)."""
        if self._mapping is None:
            self._mapping = self.build_mapping()
        return self._mapping

    def build_mapping(self) -> SchemaMapping:
        raise NotImplementedError

    # -- the native protocol, as conversations ------------------------------
    def hello(self, url: JdbcUrl) -> Generator[Any, Any, bool]:
        """The liveness probe: yield one cheap request payload, return
        whether the reply is this driver's agent (a clean 'no' for a
        wrong service on the port)."""
        raise NotImplementedError

    def exchange(
        self, url: JdbcUrl, group: str, select: sql_ast.Select
    ) -> Generator[Any, Any, list[dict[str, Any]]]:
        """Return native records (dicts of native keys) for ``group``,
        yielding each native request payload and receiving its reply.

        ``select`` is provided so fine-grained drivers can fetch only the
        fields the query touches and push down LIMIT/WHERE where the
        native protocol allows.  Records need not carry ``_site`` /
        ``_time``: :meth:`fetch_group` stamps the agent host's site and
        the instant the exchange began on every record lacking them.
        """
        raise NotImplementedError

    # -- the one I/O site and the one trust boundary -------------------------
    def _typed(self, url: JdbcUrl, fn: Callable[..., Any], *args: Any) -> Any:
        """Run untrusted-input code: ``fn`` decodes an agent's reply.

        Whatever it raises that is not already typed becomes
        :class:`SQLDataException` naming driver and source — a bad reply
        costs that source one breaker failure and the query nothing
        else.  The one sanctioned blanket ``except`` (lint GRM103).
        """
        try:
            return fn(*args)
        except (SQLException, NetworkError, GridRmError):
            raise
        except Exception as exc:
            raise SQLDataException(
                f"{self.name()}: bad reply from {url}: "
                f"{type(exc).__name__}: {exc}",
                cause=exc,
            ) from exc

    def converse(
        self,
        url: JdbcUrl,
        conversation: Generator,
        connection: GridRmConnection | None = None,
        *,
        timeout: float | None = None,
    ) -> Any:
        """Drive ``conversation`` to its return value.

        Each yielded payload is one native round-trip: through
        ``connection`` (deadline clamp, ``native`` span) when the caller
        holds one, straight over the network otherwise (probes, and
        conversations run standalone).
        """
        send: Callable[..., Any]
        memo: dict[Any, Any] | None = None
        if connection is None:
            send = partial(
                self.network.request, self.gateway_host, self.address_of(url)
            )
        else:
            send = connection.request
            if self.ask_once:
                memo = connection.session
        reply = None
        while True:
            done, value = self._typed(url, _step, conversation, reply)
            if done:
                return value
            if memo is not None and value in self.ask_once:
                if value not in memo:
                    memo[value] = send(value, timeout=timeout)
                reply = memo[value]
            else:
                reply = send(value, timeout=timeout)

    def probe(self, url: JdbcUrl, *, timeout: float = 1.0) -> bool:
        """Cheap native liveness check; a closed port or a reply
        :meth:`hello` cannot read is a clean 'no'."""
        self.stats["probes"] += 1
        try:
            return bool(self.converse(url, self.hello(url), timeout=timeout))
        except (PortClosedError, SQLDataException):
            return False

    def fetch_group(
        self,
        connection: GridRmConnection,
        group: str,
        select: sql_ast.Select,
    ) -> list[dict[str, Any]]:
        """Native records for ``group``: one :meth:`exchange`, or the
        driver's :attr:`cache` of an earlier one."""
        if self.cache is None:
            return self._fetch(connection, group, select)
        url = connection.url
        return self.cache.get_or_fetch(
            (url.host, url.port), lambda: self._fetch(connection, group, select)
        )

    def _fetch(
        self, connection: GridRmConnection, group: str, select: sql_ast.Select
    ) -> list[dict[str, Any]]:
        self.stats["fetches"] += 1
        url = connection.url
        started = self.network.clock.now()
        records = self.converse(url, self.exchange(url, group, select), connection)
        return self._typed(url, _stamp, records, self.site_of(url.host), started)

    # -- shared helpers -----------------------------------------------------
    def address_of(self, url: JdbcUrl) -> Address:
        """The native agent endpoint ``url`` names."""
        port = url.port if url.port is not None else self.default_port
        return Address(url.host, port)

    def site_of(self, host: str) -> str | None:
        """The site ``host`` belongs to, None for a host the network
        does not know."""
        return self.network.site_of(host) if self.network.has_host(host) else None

    def fields_needed(
        self, select: sql_ast.Select, group_fields: Sequence[str]
    ) -> list[str]:
        """GLUE fields a query actually touches (projection + WHERE +
        ORDER BY + GROUP BY); all fields for ``SELECT *``."""
        if select.is_star:
            return list(group_fields)
        needed: set[str] = set()
        for item in select.items:
            needed |= sql_ast.columns_in(item.expr)
        if select.where is not None:
            needed |= sql_ast.columns_in(select.where)
        for g in select.group_by:
            needed |= sql_ast.columns_in(g)
        for o in select.order_by:
            needed |= sql_ast.columns_in(o.expr)
        # Normalise case against the group's canonical field names.
        canonical = {f.lower(): f for f in group_fields}
        out = []
        for n in sorted(needed):
            hit = canonical.get(n.lower())
            if hit is not None:
                out.append(hit)
        return sorted(out)
