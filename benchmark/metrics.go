package main

// spanMetrics are the layer metrics that are the median self time, in µs, of
// one span name.
var spanMetrics = map[string]string{
	"parser.parse_us":          "parser.parse",
	"core.normalize_us":        "core.normalize",
	"rewrite.rewrite_us":       "rewrite.rewrite",
	"compile.compile_us":       "compile.compile",
	"optimize.optimize_us":     "optimize.optimize",
	"physical.lower_us":        "physical.lower",
	"plancache.lookup_us":      "plancache.lookup",
	"join.prepare_us":          "join.prepare",
	"join.choose_us":           "join.choose",
	"join.kernel_us":           "join.kernel",
	"join.kernel_nl_us":        "join.kernel_nl",
	"join.kernel_sc_us":        "join.kernel_sc",
	"join.kernel_tj_us":        "join.kernel_tj",
	"join.kernel_stream_us":    "join.kernel_stream",
	"physical.run_self_us":     "physical.run_self",
	"collection.fanout_us":     "collection.fanout",
	"collection.merge_self_us": "collection.merge_self",
	"xmlstore.open_us":         "xmlstore.open",
	"xmlstore.member_load_us":  "xmlstore.member_load",
}

// classMetrics are the medians of the in-process corpus run per query class.
var classMetrics = map[string]string{
	"collection.needle_p50_us":        "needle",
	"collection.fanout_member_p50_us": "fanout_member",
	"collection.fanout_xmark_p50_us":  "fanout_xmark",
	"collection.flwor_p50_us":         "flwor",
	"collection.collection_fn_p50_us": "collection_fn",
}

// opStages are the spans that can sit below an operation's root span, in
// pipeline order.
var opStages = []string{
	"parser.parse", "core.normalize", "rewrite.rewrite", "compile.compile",
	"optimize.optimize", "physical.lower", "physical.run",
	"plancache.lookup", "collection.ingest", "xmlstore.snapshot_write",
	"xmlstore.open", "collection.fanout", "xmlstore.serialize", "xmlstore.close",
}

// perLayerNames are the metrics of the traced pass, in the manifest's order.
var perLayerNames = []string{
	"parser.parse_us", "core.normalize_us", "rewrite.rewrite_us", "compile.compile_us",
	"optimize.optimize_us", "physical.lower_us",
	"rewrite.core_nodes_after", "optimize.rule_applications", "optimize.tree_patterns",
	"plancache.lookup_us", "plancache.hit_ratio",
	"join.prepare_us", "join.choose_us", "join.kernel_us",
	"join.kernel_nl_us", "join.kernel_sc_us", "join.kernel_tj_us", "join.kernel_stream_us",
	"join.kernel_bindings",
	"physical.run_self_us",
	"exec.prepcache_hit_ratio", "exec.prepcache_evictions",
	"collection.fanout_us", "collection.skipped_ratio", "collection.merge_self_us",
	"collection.ingest_mb_per_s",
	"collection.needle_p50_us", "collection.fanout_member_p50_us", "collection.fanout_xmark_p50_us",
	"collection.flwor_p50_us", "collection.collection_fn_p50_us",
	"xmlstore.ingest_mb_per_s", "xmlstore.snapshot_write_mb_per_s", "xmlstore.open_us",
	"xmlstore.member_load_us", "xmlstore.snapshot_bytes_per_xml_byte", "xmlstore.resident_ratio",
	"xmlstore.serialize_mb_per_s",
	"server.overhead_us", "server.handler_time_ratio", "server.shed_ratio",
	"server.response_bytes_per_op", "server.op_p99_ms",
	"go.gc_cycles", "go.gc_pause_ms_total", "go.mallocs_per_op",
	"trace.sum_over_e2e", "trace.overhead_ratio",
	"fail_ratio",
}

// units gives every metric's unit as the manifest states it.
var units = func() map[string]string {
	u := map[string]string{
		"setup_s": "s", "op_p50_ms": "ms", "op_p95_ms": "ms", "ops_per_s": "1/s",
		"alloc_kb_per_op": "KB", "cpu_ms_per_op": "ms", "heap_live_mb": "MB",

		"rewrite.core_nodes_after": "count", "optimize.rule_applications": "count",
		"optimize.tree_patterns": "count", "join.kernel_bindings": "count",
		"exec.prepcache_evictions": "count", "go.gc_cycles": "count",
		"go.mallocs_per_op": "count", "server.response_bytes_per_op": "B",
		"go.gc_pause_ms_total": "ms", "server.op_p99_ms": "ms", "server.overhead_us": "us",
		"collection.ingest_mb_per_s": "MB/s", "xmlstore.ingest_mb_per_s": "MB/s",
		"xmlstore.snapshot_write_mb_per_s": "MB/s", "xmlstore.serialize_mb_per_s": "MB/s",
	}
	for name := range spanMetrics {
		u[name] = "us"
	}
	for name := range classMetrics {
		u[name] = "us"
	}
	for _, name := range perLayerNames {
		if _, ok := u[name]; !ok {
			u[name] = "ratio"
		}
	}
	return u
}()
