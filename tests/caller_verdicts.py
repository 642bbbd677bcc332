"""Why each ``src/repro`` function that no shipped caller reaches is kept.

``tests/caller_census.py`` runs the shipped callers (the ``repro``
subcommands, every example, the quick e2e set and the benchmark suite)
and fails on a function that none of them reaches unless it has exactly
one row here; a row for a function a shipped caller now reaches, or
that no longer exists, fails it too.  ``tests/test_caller_verdicts.py``
checks the table itself without running anything.

A key is ``module:qualname`` in the ``co_qualname`` format
(``f.<locals>.g`` for a closure).  A class key covers every method of
the class that no shipped caller reaches, when one reason covers them
all.  Each row is ``(kind, reason)``, and the kind is one of:

* ``paper`` — an interface the paper specifies; the reason names its
  section (the JDBC-modelled SPI is §3.2.1, runtime driver management
  §3.2.2, the GLUE renderings §3.1.4, CGSL/FGSL §2, the Global layer
  §1.1);
* ``dialect`` — it evaluates a construct ``docs/SQL_DIALECT.md``
  documents, named in the reason (the column kernels serve the shipped
  statements; the closures behind them serve every other row shape);
* ``reference`` — a test oracle, the suite's window onto a shipped path
  (an accessor only tests read, a ``__repr__`` only assertion messages
  print), a lint rule's finding path (``repro lint src`` is clean, so
  only the rule's positive fixture reaches it), or an abstract SPI body
  every subclass overrides;
* ``wanted`` — a real path no shipped caller drives yet; the reason
  names the ROADMAP item that will add one.

A new function earns a shipped caller (a CLI flag, an example, a
workload op) or a row here; otherwise it goes.
"""

from __future__ import annotations

KINDS = ("paper", "dialect", "reference", "wanted")

_JDBC = "§3.2.1: the JDBC-modelled SPI"
_PLAN = "a closure behind the column kernels"
_REPR = "printed only in a failing assertion's message (pytest reprs the operands)"

VERDICTS: dict[str, tuple[str, str]] = {
    # -- agents: the simulated native substrate -------------------------
    "repro.agents.netlogger:NetLoggerAgent.record_count": (
        "reference", "how many ULM records the agent holds; tests/test_agent_netlogger.py"),
    "repro.agents.nws:Forecaster.observe": (
        "reference", "abstract body: every forecaster of the NWS bank overrides it"),
    "repro.agents.nws:Forecaster.predict": (
        "reference", "abstract body: every forecaster of the NWS bank overrides it"),
    "repro.agents.snmp:MibTree.__len__": (
        "reference", "MIB size the SNMP agent tests read"),
    "repro.agents.snmp:MibTree.oids": (
        "reference", "the MIB's sorted OIDs; the SET path and tests/test_agent_snmp.py read them"),
    "repro.agents.snmp:MibTree.set": (
        "reference", "a writable MIB cell; tests/test_agent_snmp.py checks SET through it"),
    "repro.agents.snmp:SnmpAgent._do_set": (
        "reference", "the agent's atomic v1 SET, against which the BER codec's SET "
        "encoding is checked (tests/test_agent_snmp.py, tests/test_properties.py)"),
    "repro.agents.snmp:_read_tlv": (
        "reference", "one BER TLV read; the codec tests decode hostile bodies with it"),
    # -- analysis: the project's own checkers ---------------------------
    "repro.analysis.conformance:clear_module_cache": (
        "reference", "drops the conformance memo; tests redefine fixture modules"),
    "repro.analysis.determinism:SetIterationOrderRule._order_finding": (
        "reference", "GRM502's finding path: only its positive fixture reaches it"),
    "repro.analysis.findings:AnalysisReport.__len__": (
        "reference", "the number of findings tests/test_analysis_integration.py reads"),
    "repro.analysis.findings:AnalysisReport.rule_ids": (
        "reference", "the rule ids of a report, as the analysis tests compare them"),
    "repro.analysis.findings:Finding.fingerprint": (
        "reference", "a finding's baseline identity; reached when `repro lint --baseline` "
        "suppresses one, and `repro lint src` has none to suppress"),
    "repro.analysis.query_check:_mismatch": (
        "reference", "GRM202's finding path (a literal of the wrong type for its column): "
        "no shipped query has one; tests/test_analysis_query_check.py"),
    "repro.analysis.races:RaceDetector.findings": (
        "reference", "the detector's findings; scenarios read them only when a race is "
        "found, and the seeded runs have none"),
    "repro.analysis.races:RaceDetector.reset_window": (
        "reference", "forgets access history between rounds; tests/test_analysis_races.py"),
    "repro.analysis.races:_fmt_lane": (
        "reference", "renders a lane in a GRM55x finding: only the detector's positive "
        "fixtures reach it"),
    "repro.analysis.rules:DriverExceptionLeakRule._raised_name": (
        "reference", "GRM104's finding path: only its positive fixture reaches it"),
    "repro.analysis.rules:LintRule.check": (
        "reference", "abstract body: every lint rule overrides it"),
    "repro.analysis.rules:LintRule.finding": (
        "reference", "builds a rule's finding: only positive fixtures reach it, "
        "`repro lint src` is clean"),
    "repro.analysis.rules:rule_table": (
        "reference", "(id, severity, title) rows DRIVER_GUIDE's rule table is tested against"),
    "repro.analysis.rules:rules_by_id": (
        "reference", "rule instances by id; `repro lint --rules` and the lint tests"),
    # -- core -------------------------------------------------------------
    "repro.core.alerts:AlertMonitor.remove_rule": (
        "paper", "§3.1.5 / Figure 3: threshold rules are added and removed at run time"),
    "repro.core.cache:CacheController.entries_for": (
        "reference", "one source's live entries; benchmarks/e2e/layers.py resolves it by name"),
    "repro.core.cache:CacheController.invalidate": (
        "paper", "§4: the gateway cache drops a removed source's entries "
        "(Gateway.remove_source)"),
    "repro.core.cache:CacheController.sweep": (
        "reference", "evicts expired entries on demand; tests/test_core_cache.py"),
    "repro.core.connection_manager:ConnectionManager.idle_count": (
        "reference", "pooled connections per source; the pool tests' window"),
    "repro.core.deadline:Deadline.__repr__": (
        "reference", _REPR),
    "repro.core.dispatch:FanoutDispatcher._sweep_flights": (
        "wanted", "bounds the remembered flights past 512 distinct (source, SQL) keys "
        "(tests/test_core_dispatch.py); ROADMAP item 18's 128-source sweep reaches it"),
    "repro.core.dispatch:FanoutDispatcher.inflight": (
        "reference", "requests in flight per source; the dispatch and admission tests"),
    "repro.core.driver_manager:GridRmDriverManager.clear_preference": (
        "paper", "§4 / Figure 8: a user's static driver preference is set and cleared"),
    "repro.core.driver_manager:GridRmDriverManager.set_preference": (
        "paper", "§4 / Figure 8: a user's static, prioritised driver choice"),
    "repro.core.driver_manager:RestoreReport.__iter__": (
        "reference", "iterates the restored drivers; tests/test_core_driver_manager.py"),
    "repro.core.errors:QueryValidationError.__init__": (
        "reference", "raised for a query with findings: no shipped query has one"),
    "repro.core.events:EventDriver.decode": (
        "reference", "abstract body: every event driver overrides it"),
    "repro.core.events:EventDriver.encode": (
        "reference", "abstract body: every event driver overrides it"),
    "repro.core.events:EventManager.backlog": (
        "reference", "buffered events; tests/test_core_events.py and the soak"),
    "repro.core.events:EventManager.unregister_listener": (
        "paper", "§3.1.5 / Figure 4: listeners register and unregister with the "
        "EventManager"),
    "repro.core.gateway:Gateway.remove_source": (
        "paper", "§4 / Figure 9: data sources are added to and removed from the list"),
    "repro.core.gateway:Gateway.set_driver_preference": (
        "paper", "§4 / Figure 8: the console pins a source's driver order"),
    "repro.core.gateway:Gateway.shutdown": (
        "wanted", "an orderly stop (timers, pools, ports); ROADMAP item 3's restart "
        "scenario runs it"),
    "repro.core.gateway:Gateway.source": (
        "reference", "one source's record; the tests' window onto its poll status"),
    "repro.core.gateway:_spec_finding": (
        "reference", "GRM301 for a persisted driver spec that will not load: no shipped "
        "gateway persists a bad one; tests/test_analysis_integration.py"),
    "repro.core.health:HealthTracker.reset": (
        "paper", "§4: an operator clears a source's breaker after fixing it"),
    "repro.core.plans:PlanCache.__len__": (
        "reference", "cached entries; tests/test_core_plans.py"),
    "repro.core.plans:PlanCache.evictions": (
        "reference", "the plans.evictions counter as the plan-cache tests read it"),
    "repro.core.plans:PlanCache.instantiations": (
        "reference", "the plans.instantiations counter as the prepared-plan tests read it"),
    "repro.core.plans:PlanCache.invalidate": (
        "reference", "drops every entry and shape; the plan-cache tests"),
    "repro.core.plans:PlanCache.invalidations": (
        "reference", "the plans.invalidations counter as tests/test_core_plans.py reads it"),
    "repro.core.request_manager:QueryResult.degraded": (
        "reference", "whether any source answered degraded; the breaker and overload tests"),
    "repro.core.request_manager:QueryResult.result_set": (
        "paper", f"{_JDBC}: an answer as a ResultSet"),
    "repro.core.request_manager:SourceStatus.stale": (
        "wanted", "a past-TTL answer served while a breaker is open; ROADMAP item 1's "
        "degradation scenario drives it"),
    "repro.core.retry:RetryBudget.__repr__": (
        "reference", _REPR),
    "repro.core.schema_manager:SchemaManager": (
        "paper", "§3.1.4: a driver's GLUE mapping is replaced and reverted at run time"),
    "repro.core.security:AccessRule.matches": (
        "paper", "§2: an FGSL rule's host/group match"),
    "repro.core.security:CoarseGrainedSecurity": (
        "paper", "§2: CGSL grants, restricts and revokes an operation"),
    "repro.core.security:FineGrainedSecurity": (
        "paper", "§2: FGSL rules, first match wins"),
    "repro.core.sessions:Session.touch": (
        "paper", "§2 / Figure 2 session management: a validated call resets the idle timer"),
    "repro.core.sessions:SessionManager": (
        "paper", "§2 / Figure 2 session management: validate, close, sweep, count"),
    # -- dbapi: the JDBC-modelled SPI -----------------------------------
    "repro.dbapi.interfaces:Connection": (
        "paper", f"{_JDBC}: raising-by-default bodies a driver overrides"),
    "repro.dbapi.interfaces:DatabaseMetaData": (
        "paper", f"{_JDBC}: raising-by-default bodies a driver overrides"),
    "repro.dbapi.interfaces:Driver": (
        "paper", f"{_JDBC}: raising-by-default bodies a driver overrides"),
    "repro.dbapi.interfaces:ResultSet": (
        "paper", f"{_JDBC}: raising-by-default bodies a result set overrides"),
    "repro.dbapi.interfaces:ResultSetMetaData": (
        "paper", f"{_JDBC}: raising-by-default bodies"),
    "repro.dbapi.interfaces:Statement": (
        "paper", f"{_JDBC}: raising-by-default bodies a driver overrides"),
    "repro.dbapi.interfaces:_unsupported": (
        "paper", f"{_JDBC}: the SQLException an unimplemented method raises"),
    "repro.dbapi.registry:DriverRegistry.__len__": (
        "paper", "§3.2.2 / Table 2: the registered drivers"),
    "repro.dbapi.registry:DriverRegistry.connect": (
        "paper", "§3.2.2 / Table 2: DriverManager.getConnection"),
    "repro.dbapi.registry:DriverRegistry.locate": (
        "paper", "§3.2.2 / Table 2: the acceptsURL scan"),
    "repro.dbapi.registry:register_all": (
        "paper", "§3.2.2: the start-up default driver set"),
    "repro.dbapi.resultset:ListResultSet": (
        "paper", f"{_JDBC}: the ResultSet an answer is read through"),
    "repro.dbapi.resultset:ListResultSetMetaData": (
        "paper", f"{_JDBC}: ResultSetMetaData"),
    "repro.dbapi.url:JdbcUrl.with_protocol": (
        "paper", "§3.2.2: a URL pinned to one driver's protocol"),
    # -- drivers --------------------------------------------------------
    "repro.drivers.base:GridRmConnection.get_metadata": (
        "paper", f"{_JDBC}: Connection.getMetaData"),
    "repro.drivers.base:GridRmDatabaseMetaData": (
        "paper", f"{_JDBC}: DatabaseMetaData"),
    "repro.drivers.base:GridRmDriver.build_mapping": (
        "reference", "abstract body: every driver overrides it"),
    "repro.drivers.base:GridRmDriver.exchange": (
        "reference", "abstract body: every driver overrides it"),
    "repro.drivers.base:GridRmDriver.hello": (
        "reference", "abstract body: every driver overrides it"),
    "repro.drivers.base:GridRmStatement": (
        "paper", f"{_JDBC}: Statement close and query timeout"),
    "repro.drivers.base:ResponseCache.invalidate": (
        "reference", "drops a driver's cached replies; tests/test_driver_base.py"),
    # -- glue -----------------------------------------------------------
    "repro.glue.mapping:SchemaMapping.groups": (
        "paper", f"{_JDBC}: DatabaseMetaData.getTables lists a driver's GLUE groups"),
    "repro.glue.render:_coerce": (
        "paper", "§3.1.4: typed values when an XML or LDIF rendering is parsed back"),
    "repro.glue.render:ldif_to_rows": (
        "paper", "§3.1.4: the LDAP (MDS-2 LDIF) GLUE rendering, parsed back"),
    "repro.glue.render:rows_to_ldif": (
        "paper", "§3.1.4: the LDAP (MDS-2 LDIF) GLUE rendering"),
    "repro.glue.render:rows_to_xml": (
        "paper", "§3.1.4: the XML GLUE rendering of rows"),
    "repro.glue.render:xml_to_rows": (
        "paper", "§3.1.4: the XML GLUE rendering, parsed back"),
    "repro.glue.schema:GlueGroup.has_field": (
        "reference", "whether a group defines a field; the GLUE schema tests"),
    "repro.glue.schema:GlueSchema.__len__": (
        "reference", "the number of groups the schema tests read"),
    "repro.glue.validation:ValidationIssue.__str__": (
        "reference", "validate_row's issue as text, for a failing assertion's message"),
    "repro.glue.validation:validate_row": (
        "reference", "oracle: a GLUE row's types and ranges, checked in "
        "tests/test_integration.py against every driver's rows"),
    # -- gma ------------------------------------------------------------
    "repro.gma.archiver:EventArchiver.severity_breakdown": (
        "reference", "archived events per severity; tests/test_gma_archiver.py"),
    "repro.gma.directory:DirectoryClient.list_producers": (
        "paper", "§1.1: the GMA directory lists registered producers"),
    "repro.gma.directory:DirectoryClient.unregister_producer": (
        "paper", "§1.1: a producer leaves the GMA directory"),
    "repro.gma.directory:GMADirectory._unregister": (
        "paper", "§1.1: the directory's side of unregister_producer"),
    "repro.gma.global_layer:GlobalLayer.known_sites": (
        "paper", "§1.1: the sites the Global layer can route to"),
    "repro.gma.global_layer:GlobalLayer.unregister": (
        "paper", "§1.1: a gateway leaves the Global layer"),
    "repro.gma.records:Fields.bad": (
        "paper", "§1.1: a gateway-to-gateway message with a bad field is refused "
        "(tests/test_gma_bad_wires.py); no honest peer sends one"),
    "repro.gma.streams:StreamConsumer.deregister": (
        "paper", "§3.1.5: a GMA consumer ends its subscription"),
    "repro.gma.streams:StreamConsumer.pause": (
        "paper", "§3.1.5: a GMA consumer pauses its subscription"),
    "repro.gma.streams:StreamConsumer.resume": (
        "paper", "§3.1.5: a GMA consumer resumes its subscription"),
    "repro.gma.streams:StreamConsumer.rows": (
        "reference", "every delivered row of one subscription; the streaming oracle reads it"),
    "repro.gma.streams:StreamHub._pause": (
        "paper", "§3.1.5: the hub's side of a consumer's pause"),
    "repro.gma.streams:StreamHub._resume": (
        "paper", "§3.1.5: the hub's side of a consumer's resume"),
    "repro.gma.streams:StreamHub.subscription_count": (
        "reference", "live subscriptions; tests/test_gma_streams.py"),
    "repro.gma.subscription:EventPublisher.subscriber_count": (
        "reference", "live event subscriptions; tests/test_gma_subscription.py"),
    # -- obs ------------------------------------------------------------
    "repro.obs.invariants:check_trace.<locals>.where": (
        "reference", "names the span in a trace-invariant violation: only a broken "
        "trace reaches it"),
    "repro.obs.metrics:Counter.__repr__": (
        "reference", _REPR),
    "repro.obs.metrics:Histogram.__repr__": (
        "reference", _REPR),
    "repro.obs.metrics:StatsView.__len__": (
        "reference", "abstract method of collections.abc.Mapping; tests read len(stats)"),
    "repro.obs.metrics:StatsView.__repr__": (
        "reference", _REPR),
    "repro.obs.trace:Span.__repr__": (
        "reference", _REPR),
    "repro.obs.trace:Trace.__repr__": (
        "reference", _REPR),
    "repro.obs.trace:Trace.find_span": (
        "reference", "a span by id or name; the trace tests"),
    "repro.obs.trace:_NullSpan.__repr__": (
        "reference", _REPR),
    "repro.obs.trace:_NullSpan.cancel": (
        "reference", "Span.cancel's no-op twin: reached only by a hedge loser with "
        "tracing off (tests/test_trace_invariants.py)"),
    "repro.obs.trace:_NullSpan.fail": (
        "reference", "Span.fail's no-op twin: reached only by a failure with tracing off"),
    # -- scenario / simnet / storage / testbed ----------------------------
    "repro.scenario:ScenarioReport.as_dict": (
        "reference", "a report as plain data; tests/test_scenario.py"),
    "repro.scenario:_first_diff_line": (
        "reference", "names the first differing line when a dual run diverges: the seeded "
        "runs never diverge (tests/test_racecheck.py)"),
    "repro.simnet.clock:ConcurrentScope.elapsed": (
        "reference", "the longest branch so far; tests/test_simnet_clock.py"),
    "repro.simnet.clock:VirtualClock.pending": (
        "reference", "live scheduled calls; the clock and stream tests"),
    "repro.simnet.faults:FaultPlane.active_faults": (
        "reference", "the fault windows open now; tests/test_simnet_faults.py"),
    "repro.simnet.faults:FaultPlane.schedule_log": (
        "reference", "every scheduled fault in order; tests/test_simnet_faults.py"),
    "repro.simnet.faults:FaultWindow.describe": (
        "reference", "one fault window as text, for active_faults"),
    "repro.simnet.network:Network.is_listening": (
        "reference", "whether an address is bound; the network and servlet tests"),
    "repro.simnet.network:Network.service_time": (
        "reference", "a host's injected service time; tests/test_simnet_network.py"),
    "repro.simnet.network:Network.slowdown": (
        "reference", "a host's injected slowdown; tests/test_simnet_faults.py"),
    "repro.storage.recovery:RecoveryReport.clean": (
        "reference", "whether recovery found no damage; tests/test_storage_engine.py"),
    "repro.testbed:Site.heal_host": (
        "reference", "brings a failed host back; the breaker tests"),
    # -- sql: the dialect ----------------------------------------------
    "repro.sql.database:Table.__len__": (
        "dialect", "DML / DDL: a table's row count"),
    "repro.sql.database:Table.coerce": (
        "dialect", "DML / DDL: INSERT / UPDATE coerce a value to its column type"),
    "repro.sql.errors:SqlParseError.__init__": (
        "dialect", "Lexical rules: a text outside the dialect is a SqlParseError"),
    "repro.sql.lexer:_unexpected": (
        "dialect", "Lexical rules: a character outside them is refused"),
    "repro.sql.parser:_Parser.check_tree_depth": (
        "dialect", "Programmatic surface: MAX_EXPR_DEPTH bounds a statement's nesting"),
    "repro.sql.parser:_Parser.create_table": (
        "dialect", "DML / DDL: CREATE TABLE"),
    "repro.sql.parser:_Parser.drop_table": ("dialect", "DML / DDL: DROP TABLE"),
    "repro.sql.parser:_Parser.fail": (
        "dialect", "Lexical rules / Queries: a text that does not parse is refused"),
    "repro.sql.parser:_Parser.fail_too_deep": (
        "dialect", "Programmatic surface: MAX_EXPR_DEPTH exceeded"),
    "repro.sql.parser:_Parser.insert": ("dialect", "DML / DDL: INSERT"),
    "repro.sql.parser:_Parser.update": ("dialect", "DML / DDL: UPDATE"),
    "repro.sql.plan:BoundPlan._extended_rows": (
        "dialect", "Queries: ORDER BY / GROUP BY a computed alias"),
    "repro.sql.plan:BoundPlan.execute_each": (
        "reference", "one plan over a round of relations, what ShapeGroup.execute_each "
        "must return member by member (tests/test_sql_plan.py, tests/test_stream_shapes.py)"),
    "repro.sql.plan:_compile_agg_expr.<locals>.binop": (
        "dialect", "Queries: arithmetic over aggregates (`SUM(x) + 1`)"),
    "repro.sql.plan:_compile_agg_expr.<locals>.unary": (
        "dialect", "Queries: NOT / unary minus over aggregates"),
    "repro.sql.plan:_compile_aggregate.<locals>.arity_error": (
        "dialect", "Queries: an aggregate takes exactly one argument"),
    "repro.sql.plan:_compile_aggregate.<locals>.star_error": (
        "dialect", "Queries: `*` only in COUNT(*) (`SELECT SUM(*)` is refused)"),
    "repro.sql.plan:_compile_binop.<locals>.and_fn": (
        "dialect", f"NULL semantics: three-valued AND, {_PLAN}"),
    "repro.sql.plan:_compile_binop.<locals>.binop_fn": (
        "dialect", f"Queries: comparison and arithmetic operators, {_PLAN}"),
    "repro.sql.plan:_compile_binop.<locals>.div_fn": (
        "dialect", f"Queries: `/` and `%`, NULL on a zero divisor, {_PLAN}"),
    "repro.sql.plan:_compile_binop.<locals>.like_fn": (
        "dialect", f"Queries: LIKE with a non-literal pattern, {_PLAN}"),
    "repro.sql.plan:_compile_binop.<locals>.or_fn": (
        "dialect", f"NULL semantics: three-valued OR, {_PLAN}"),
    "repro.sql.plan:_compile_expr.<locals>.agg_error": (
        "dialect", "Queries: an aggregate outside an aggregating query is refused"),
    "repro.sql.plan:_compile_expr.<locals>.between_fn": (
        "dialect", f"Queries: [NOT] BETWEEN, {_PLAN}"),
    "repro.sql.plan:_compile_expr.<locals>.in_fn": (
        "dialect", f"Queries: [NOT] IN, {_PLAN}"),
    "repro.sql.plan:_compile_expr.<locals>.isnull_fn": (
        "dialect", f"Queries: IS [NOT] NULL, {_PLAN}"),
    "repro.sql.plan:_compile_expr.<locals>.neg_fn": (
        "dialect", "Queries: unary minus"),
    "repro.sql.plan:_compile_expr.<locals>.not_fn": ("dialect", "NULL semantics: NOT"),
    "repro.sql.plan:_compile_expr.<locals>.star_error": (
        "dialect", "Queries: `*` only as a projection or in COUNT(*)"),
    "repro.sql.plan:_negate": (
        "dialect", "Queries: unary minus (over TEXT, a typed error)"),
    "repro.sql.plan:_null_stage": (
        "dialect", "Queries: the IS [NOT] NULL column kernel"),
    "repro.sql.plan:_null_stage.<locals>.stage": (
        "dialect", "Queries: the IS [NOT] NULL column kernel"),
    "repro.sql.plan:compile_expr": (
        "dialect", "DML / DDL: UPDATE and DELETE evaluate WHERE and SET through it"),
    "repro.sql.values:SelectResult.__init__": (
        "dialect", "DML / DDL: the SQL agent's and Database's answer to a SELECT"),
    "repro.sql.values:SelectResult.__len__": (
        "dialect", "DML / DDL: the row count of Database's answer"),
    "repro.sql.values:SelectResult.__repr__": (
        "reference", _REPR),
    "repro.sql.values:SelectResult.dicts": (
        "dialect", "DML / DDL: Database's answer as dicts"),
    "repro.sql.values:SortKey": (
        "dialect", "NULL semantics: ORDER BY over mixed types and NULLs"),
    "repro.sql.values:apply_binop_values": (
        "dialect", "Queries: operators over already-evaluated values (aggregate "
        "arithmetic, the reference interpreter)"),
    "repro.sql.values:as_number": (
        "dialect", "Queries: SUM / AVG over a bool or a numeric string (plain ints and "
        "floats are added without it)"),
}
