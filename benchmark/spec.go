package main

import (
	"encoding/json"
	"strings"
)

// The benchmark's contract — workload names, metric names, units,
// directions and regression bounds — is declared once, here. BENCHMARK.json
// at the repo root is this table printed by -emit-spec, and bench_test.go
// fails when the two drift apart.

// runSeconds is BENCHMARK.json's run_seconds: the measuring time the
// harness passes as -seconds. Phase lengths derive from it (see e2e.go).
const runSeconds = 20

// benchCommand is how the harness starts one run, from the repo root.
var benchCommand = []string{"bash", "benchmark/run.sh"}

type metricDecl struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: tolerated relative worsening
}

// endToEnd are the client-observed metrics, the same set on every
// workload. Each bound is the larger of three times the worst ten-run
// spread and twice the worst ten-run range in README.md's noise table,
// and at most 0.25, the harness's cap — which is what the four timing
// metrics come to.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"query_qps", "queries/s", "higher", 0.25},
	{"batch_qps", "queries/s", "higher", 0.25},
	{"ingest_vps", "vectors/s", "higher", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.17},
	{"disk_amp", "ratio", "lower", 0.01},
}

// strategies are the access paths the plan layer is measured under, in
// the spelling QuerySpec.Strategy parses.
var strategies = []string{"auto", "bond", "vafile", "compressed", "exact"}

// perLayer are the traced run's metrics, one group per package. They
// carry no bound; README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	var out []metricDecl
	add := func(name, unit, better string) {
		out = append(out, metricDecl{name: name, unit: unit, better: better})
	}
	add("kernel.memcpy_gbps", "GB/s", "higher")
	for _, k := range []string{"acc_sqdist_dense", "acc_sqdist_sparse", "acc_minq_dense", "acc_minq_sparse", "acc_code_bounds", "va_rowsum", "sqdist_row"} {
		add("kernel."+k+"_ns_cell", "ns/cell", "lower")
	}
	add("kernel.roofline_frac", "ratio", "higher")

	for _, s := range strategies {
		add("plan.query_us."+s, "us", "lower")
	}
	for _, s := range strategies {
		add("plan.cells_per_query."+s, "cells", "lower")
	}
	add("plan.auto_regret", "ratio", "lower")
	add("plan.segments_skipped_frac", "ratio", "higher")
	add("plan.final_candidates", "count", "lower")
	for _, s := range strategies[1:] {
		// A share has no good direction; "lower" is a placeholder.
		add("plan.path_share."+s, "ratio", "lower")
	}
	add("plan.cost_pred_ratio", "ratio", "lower") // ideal is 1

	add("bond.query_allocs", "allocs", "lower")
	add("bond.batch32_us_per_query", "us", "lower")
	add("bond.batch_speedup", "ratio", "higher")
	add("bond.scale_c2", "ratio", "higher")
	add("bond.query_under_write_us", "us", "lower")
	add("bond.add_batch64_us", "us", "lower")
	add("bond.delete_us", "us", "lower")

	add("wal.append_us", "us", "lower")
	add("wal.append_fsync_us", "us", "lower")
	add("wal.bytes_per_vector", "bytes", "lower")
	add("wal.decode_mb_s", "MB/s", "higher")

	add("durable.checkpoint_ms", "ms", "lower")
	add("durable.open_mmap_ms", "ms", "lower")
	add("durable.open_heap_ms", "ms", "lower")
	add("durable.recover_ms", "ms", "lower")
	add("durable.write_amp", "ratio", "lower")
	add("vstore.mapped_mb", "MiB", "higher")

	add("maint.compact_ms", "ms", "lower")
	add("maint.recluster_ms", "ms", "lower")
	add("maint.runs", "count", "lower")

	add("topk.merge_us", "us", "lower")

	add("api.query_decode_us", "us", "lower")
	add("api.query_encode_us", "us", "lower")
	add("api.batch_encode_us_per_query", "us", "lower")
	add("api.ingest_decode_us_per_vector", "us", "lower")

	add("server.handler_query_us", "us", "lower")
	add("server.overhead_us", "us", "lower")
	add("server.http_us", "us", "lower")
	add("server.handler_batch_us_per_query", "us", "lower")
	add("server.handler_ingest_us", "us", "lower")
	add("server.rejected", "ratio", "lower")

	add("shard.coord_handler_us", "us", "lower")
	add("shard.slowest_shard_us", "us", "lower")
	add("shard.fanout_overhead_us", "us", "lower")
	add("shard.fanouts_per_query", "count", "lower")
	add("shard.retries", "count", "lower")
	add("shard.ingest_route_us", "us", "lower")

	add("load.client_us", "us", "lower")
	add("load.closed_p50_ms", "ms", "lower")
	add("load.closed_p99_ms", "ms", "lower")
	add("load.ingest_p50_ms", "ms", "lower")
	add("load.open_rate_qps", "1/s", "higher")
	add("load.open_p50_ms", "ms", "lower")
	add("load.open_p99_ms", "ms", "lower")
	add("load.open_late_p99_ms", "ms", "lower")
	add("load.trace_overhead_frac", "ratio", "lower")
	add("load.span_coverage", "ratio", "higher") // ideal is 1
	return out
}

// emitSpec renders BENCHMARK.json.
func emitSpec() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: benchCommand, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc) // plain structs of strings and numbers cannot fail to encode
	return sb.String()
}
