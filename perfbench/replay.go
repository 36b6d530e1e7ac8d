package main

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"time"
)

// layerNames lists every per-layer metric with its unit. A run reports all
// of them; a layer the workload leaves idle reads 0.
var layerNames = [][2]string{
	{"core.build_ms", "ms"}, {"core.labelings", "count"}, {"core.alloc_mb", "MB"}, {"core.self_ms", "ms"},
	{"pointloc.build_ms", "ms"}, {"pointloc.cells", "count"}, {"pointloc.patched_frac", "ratio"},
	{"pointloc.query_us_per_pt", "us"}, {"pointloc.self_ms", "ms"},
	{"render.raster_ms", "ms"}, {"render.png_ms", "ms"}, {"render.self_ms", "ms"},
	{"postprocess.summary_ms", "ms"}, {"postprocess.self_ms", "ms"},
	{"optimal.topk_ms", "ms"}, {"optimal.self_ms", "ms"},
	{"delta.apply_ms", "ms"}, {"delta.reswept_frac", "ratio"}, {"delta.rebuilt_frac", "ratio"},
	{"delta.alloc_mb", "MB"}, {"delta.self_ms", "ms"},
	{"snapshot.wal_append_ms", "ms"}, {"snapshot.wal_bytes_per_op", "B"}, {"snapshot.save_ms", "ms"},
	{"snapshot.open_ms", "ms"}, {"snapshot.replay_ms", "ms"}, {"snapshot.self_ms", "ms"},
	{"server.tile_cache_hit_frac", "ratio"}, {"server.queue_ms", "ms"}, {"server.commit_ms", "ms"},
	{"server.ack_gap_ms", "ms"}, {"server.group_batches", "count"}, {"server.self_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"}, {"runtime.heap_peak_mb", "MB"},
	{"gen.late_p99_ms", "ms"}, {"gen.backlog_grew", "count"},
	{"trace.overhead_ms", "ms"},
}

// layers maps each layer to the span names whose self time it owns.
var layers = map[string][]string{
	"core":        {"core.build"},
	"pointloc":    {"pointloc.build", "pointloc.query"},
	"render":      {"render.raster", "render.png"},
	"postprocess": {"postprocess.summary"},
	"optimal":     {"optimal.topk"},
	"delta":       {"delta.apply"},
	"snapshot":    {"snapshot.save", "snapshot.wal_append", "snapshot.open", "snapshot.replay"},
}

// layerMetrics turns the replay's spans into the per-layer metrics, writes
// the spans out, and fills every per-layer metric the workload left unset
// with 0. primary names the replayed span of the workload's main operation
// and primaryLat its untraced latencies: their medians' difference is the
// tracing overhead. readLat are the untraced heat-batch latencies; what
// they spend outside the point-location layer is the server's own time.
func (b *bench) layerMetrics(tr *tracer, primary string, primaryLat, readLat []time.Duration) error {
	heapMB, gcFrac := tr.finish()
	b.setLayer("runtime.heap_peak_mb", "MB", heapMB, 1)
	b.setLayer("runtime.gc_cpu_frac", "ratio", gcFrac, 1)
	sum := tr.summarize()
	medianOf := func(metric, span string) {
		if ls := sum[span]; ls != nil {
			b.setLayer(metric, "ms", median(ls.durMS), len(ls.durMS))
		}
	}
	medianOf("core.build_ms", "core.build")
	medianOf("pointloc.build_ms", "pointloc.build")
	medianOf("render.raster_ms", "render.raster")
	medianOf("render.png_ms", "render.png")
	medianOf("postprocess.summary_ms", "postprocess.summary")
	medianOf("optimal.topk_ms", "optimal.topk")
	medianOf("delta.apply_ms", "delta.apply")
	medianOf("snapshot.wal_append_ms", "snapshot.wal_append")
	medianOf("snapshot.save_ms", "snapshot.save")
	medianOf("snapshot.open_ms", "snapshot.open")
	medianOf("snapshot.replay_ms", "snapshot.replay")
	if ls := sum["core.build"]; ls != nil {
		b.setLayer("core.alloc_mb", "MB", median(ls.allocMB), len(ls.allocMB))
	}
	if ls := sum["delta.apply"]; ls != nil {
		b.setLayer("delta.alloc_mb", "MB", median(ls.allocMB), len(ls.allocMB))
	}
	for layer, spans := range layers {
		self := 0.0
		for _, s := range spans {
			if ls := sum[s]; ls != nil {
				self += ls.selfMS
			}
		}
		b.setLayer(layer+".self_ms", "ms", self, 1)
	}
	if ls := sum[primary]; ls != nil && len(primaryLat) > 0 {
		b.setLayer("trace.overhead_ms", "ms", median(ls.durMS)-median(msList(primaryLat)), len(ls.durMS))
	}
	if ls := sum["pointloc.query"]; ls != nil && len(readLat) > 0 {
		b.setLayer("server.self_ms", "ms", median(msList(readLat))-median(ls.durMS), len(readLat))
		total := 0.0
		for _, d := range ls.durMS {
			total += d
		}
		b.setLayer("pointloc.query_us_per_pt", "us", 1000*total/float64(len(ls.durMS)*batchPoints), len(ls.durMS)*batchPoints)
	}
	for _, nu := range layerNames {
		if _, ok := b.layer[nu[0]]; !ok {
			b.setLayer(nu[0], nu[1], 0, 0)
		}
	}
	for _, layer := range slices.Sorted(maps.Keys(layers)) {
		b.note("layer %-12s self %10.1f ms", layer, b.layer[layer+".self_ms"].Value)
	}
	path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", b.name, b.seed))
	b.note("trace: %d spans written to %s", len(tr.spans), path)
	return tr.write(path)
}
