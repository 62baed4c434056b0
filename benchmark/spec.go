package main

import "encoding/json"

// This file is the benchmark's declaration: workload names, metric names,
// units, directions and regression bounds. BENCHMARK.json at the repo
// root repeats the same names for the driver; smoke_test.go fails when
// the two drift apart.

// runSeconds is how long one run measures (ten windows of a tenth
// each), after a 2 s warm-up.
const runSeconds = 15

// metricSpec declares one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before it counts as a regression (0 for
	// per-layer metrics, which are diagnostic and ungated).
	Bound float64
}

// workloadSpec declares one workload and why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

const (
	wlConfChoice    = "conf_choice"
	wlFetchHot      = "fetch_hot"
	wlFetchColdRW   = "fetch_cold_rw"
	wlMultiresView  = "multires_view"
	wlClusterChoice = "cluster_choice"
)

var workloadSpecs = []workloadSpec{
	{wlConfChoice, "4-member room, 2 drivers send choices: smallest messages, so cpnet/core/room/wire small-frame/push cost dominates and media layers idle"},
	{wlFetchHot, "3 MiB of objects under a 64 MiB cache: wire large-frame writev, proto codecs, cache hit path and client decode; mediadb/store/blob idle"},
	{wlFetchColdRW, "48 MiB of distinct objects over an 8 MiB cache, 10% text writes: miss, evict, invalidate and WAL paths of the layers fetch_hot skips"},
	{wlMultiresView, "GetCmp at 1-3 layers plus wavelet reconstruction: media/compress decode does almost all the work, every server layer near idle"},
	{wlClusterChoice, "conf_choice on a 3-node forwarding cluster with drivers on non-owners: adds relay hop, ingress push return, replication, dataset sync"},
}

// endToEndSpecs are the metrics a conference participant feels, each
// with the share by which it may get worse before that counts as a
// regression. The bounds come from ten-seed quartile spreads on the
// 2-core reference host (README.md, "Steadiness"): the four time-based
// metrics and setup_s are read at the host's nominal speed (measure.go,
// refKernel), which removes most but not all of what the host's
// neighbours do to them, so they carry the widest bound allowed; the
// counted metrics repeat to a few percent and are gated tighter.
var endToEndSpecs = []metricSpec{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.15},
	{"wire_kb_per_op", "KiB", "lower", 0.05},
	{"heap_live_mb", "MiB", "lower", 0.15},
	{"ok_share", "ratio", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// serverMethods are the RPCs whose server-side handle percentiles are
// reported per layer.
var serverMethods = []string{"room.choice", "db.getImage", "db.getAudio", "db.getCmp", "db.putImageTexts"}

// traceLayers are the layer rows of the traced pass's self-time table,
// outermost first.
var traceLayers = []string{"client", "wire", "proto", "cluster", "server", "room", "core", "cpnet", "mediadb", "store", "blob", "media"}

// perLayerSpecs lists every per-layer metric. A metric a workload does
// not exercise reads 0 on that workload.
var perLayerSpecs = buildPerLayerSpecs()

func buildPerLayerSpecs() []metricSpec {
	lo := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	specs := []metricSpec{
		lo("host.slowdown", "ratio"),
		lo("cpnet.complete_us", "us"),
		lo("core.choice_us", "us"),
		lo("room.choice_us", "us"),
		lo("room.encode_us", "us"),
		lo("room.event_bytes", "B"),
		lo("server.push_encodes_per_event", "ratio"),
		lo("proto.choice_codec_us", "us"),
		lo("proto.get_codec_us", "us"),
		lo("proto.get_overhead_bytes", "B"),
		lo("wire.rtt_small_us", "us"),
		lo("wire.rtt_64k_us", "us"),
		lo("wire.rtt_256k_us", "us"),
		lo("wire.push_us", "us"),
		hi("wire.messages_per_flush", "ratio"),
		lo("wire.writes_per_op", "count"),
		lo("wire.pool_miss_ratio", "ratio"),
	}
	for _, m := range serverMethods {
		specs = append(specs, lo("server.handle_p50_us."+m, "us"), lo("server.handle_p99_us."+m, "us"))
	}
	specs = append(specs,
		hi("server.cache_hit_ratio", "ratio"),
		lo("server.cache_evictions_per_op", "count"),
		lo("server.admitted_per_op", "count"),
		lo("server.shed", "count"),
		lo("server.qos_tune_changes", "count"),
		lo("mediadb.get_image_us", "us"),
		lo("mediadb.get_audio_us", "us"),
		lo("mediadb.get_cmp_us", "us"),
		lo("mediadb.update_texts_us", "us"),
		lo("store.get_us", "us"),
		lo("store.update_us", "us"),
		lo("store.wal_appends_per_write", "count"),
		lo("store.wal_syncs_per_write", "count"),
		lo("blob.get_us", "us"),
		hi("blob.get_mb_per_s", "MiB/s"),
		lo("blob.gets_per_read", "count"),
		hi("blob.put_mb_per_s", "MiB/s"),
		lo("blob.stored_per_user_byte", "ratio"),
		lo("media.image.decode_us", "us"),
		lo("media.image.decode_256k_us", "us"),
		lo("media.compress.unmarshal_us", "us"),
		lo("media.compress.decode_ms.l1", "ms"),
		lo("media.compress.decode_ms.l2", "ms"),
		lo("media.compress.decode_ms.l3", "ms"),
		lo("client.choice_self_us", "us"),
		lo("client.fetch_self_us", "us"),
		lo("client.event_apply_us", "us"),
		lo("client.read_p50_us", "us"),
		lo("client.write_p50_us", "us"),
		lo("client.op_p99_ms", "ms"),
		lo("cluster.forward_hop_us", "us"),
		lo("cluster.forwards_per_op", "count"),
		lo("cluster.redirects", "count"),
		lo("cluster.replicated_per_op", "count"),
		lo("cluster.manifest_syncs", "count"),
		lo("cluster.sync_chunk_bytes", "B"),
		lo("cluster.idle_cpu_ms_per_s", "ms/s"),
		lo("cluster.idle_alloc_kb_per_s", "KiB/s"),
		lo("cluster.placement_owner_ns", "ns"),
	)
	for _, l := range traceLayers {
		specs = append(specs, lo("trace.self_us."+l, "us"))
	}
	specs = append(specs,
		lo("trace.residue_us", "us"),
		lo("trace.root_mean_us", "us"),
		lo("trace.root_p50_us", "us"),
		lo("trace.overhead_us", "us"),
		lo("trace.overrun_share", "ratio"),
	)
	return specs
}

func findSpec(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

// benchmarkJSON renders the declaration in the driver's BENCHMARK.json
// schema (`go -C benchmark run . spec > BENCHMARK.json`).
func benchmarkJSON() []byte {
	type jsonWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type jsonEndToEnd struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type jsonPerLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []jsonWorkload `json:"workloads"`
		EndToEnd   []jsonEndToEnd `json:"end_to_end"`
		PerLayer   []jsonPerLayer `json:"per_layer"`
	}{
		// The package is named by import path, not ".", so the command
		// names no directory outside the benchmark's own.
		Command:    []string{"go", "-C", "benchmark", "run", "mmconf/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		doc.Workloads = append(doc.Workloads, jsonWorkload(w))
	}
	for _, m := range endToEndSpecs {
		doc.EndToEnd = append(doc.EndToEnd, jsonEndToEnd(m))
	}
	for _, m := range perLayerSpecs {
		doc.PerLayer = append(doc.PerLayer, jsonPerLayer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(out, '\n')
}
