package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// metricDef names one metric of BENCHMARK.json. moves says which
// end-to-end metric, on which workload, a per-layer metric should move.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed regression share
	moves              string
}

// endToEndDefs are printed by every --trace 0 run: each is defined on
// every workload (every workload sends /topk).
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "topk_p50_ms", unit: "ms", better: "lower", bound: 0.24},
	{name: "cpu_us_per_req", unit: "us", better: "lower", bound: 0.24},
	{name: "ok_frac", unit: "frac", better: "higher", bound: 0.01},
}

// daemonDefs come from the run's own HTTP phase.
var daemonDefs = []metricDef{
	{name: "daemon.healthz_p50_ms", unit: "ms", better: "lower", moves: "topk_p50_ms on read_hot (the HTTP and mux floor)"},
	{name: "daemon.req_per_s", unit: "1/s", better: "higher", moves: "nothing gated: closed-loop throughput, too tail-driven to gate on this machine"},
	{name: "daemon.topk_p95_ms", unit: "ms", better: "lower", moves: "nothing gated: the /topk tail (GC pauses, checkpoints)"},
	{name: "daemon.quality_p50_ms", unit: "ms", better: "lower", moves: "nothing gated: on read_hot and durable_clean a /quality answer is a memo lookup or a short resume, so its latency is mostly the loopback round trip"},
	{name: "daemon.outside_frac", unit: "frac", better: "lower", moves: "topk_p50_ms on read_hot (share of /topk spent outside the engine: HTTP, scheduling)"},
}

// replayDefs come from the in-process replays; a traced run replays every
// workload, so each of these is measured in every traced run, on the
// workload its name starts with.
var replayDefs = map[string][]metricDef{
	"read_hot": {
		{name: "gen.synthetic_s", unit: "s", better: "lower", moves: "setup_s"},
		{name: "engine.answers_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "engine.quality_us", unit: "us", better: "lower", moves: "daemon.quality_p50_ms"},
		{name: "json.topk_encode_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "topkq.ptk_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "uncertain.pin_ns", unit: "ns", better: "lower", moves: "nothing (control)"},
	},
	"churn_requery": {
		{name: "gen.synthetic_s", unit: "s", better: "lower", moves: "setup_s"},
		{name: "engine.answers_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "engine.quality_us", unit: "us", better: "lower", moves: "daemon.quality_p50_ms"},
		{name: "engine.pure_hit_frac", unit: "frac", better: "higher", moves: "topk_p50_ms"},
		{name: "json.topk_encode_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "json.mutate_decode_us", unit: "us", better: "lower", moves: "cpu_us_per_req (and the /mutate p50 line)"},
		{name: "uncertain.commit_us", unit: "us", better: "lower", moves: "cpu_us_per_req (and the /mutate p50 line)"},
		{name: "uncertain.commit_alloc_kb", unit: "KiB", better: "lower", moves: "cpu_us_per_req and rss_peak_mb"},
		{name: "uncertain.pin_ns", unit: "ns", better: "lower", moves: "nothing (control)"},
		{name: "topkq.scan_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "topkq.scan_alloc_kb", unit: "KiB", better: "lower", moves: "topk_p50_ms"},
		{name: "topkq.processed", unit: "count", better: "lower", moves: "topk_p50_ms (Lemma 2 termination point)"},
		{name: "topkq.processed_frac", unit: "frac", better: "lower", moves: "topk_p50_ms"},
		{name: "topkq.rescanned", unit: "count", better: "lower", moves: "topk_p50_ms"},
		{name: "topkq.rebuilds", unit: "count", better: "lower", moves: "topk_p50_ms"},
		{name: "topkq.semantics_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "topkq.ptk_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "quality.tp_us", unit: "us", better: "lower", moves: "topk_p50_ms and daemon.quality_p50_ms"},
		{name: "quality.tp_alloc_kb", unit: "KiB", better: "lower", moves: "topk_p50_ms and daemon.quality_p50_ms"},
	},
	"durable_clean": {
		{name: "gen.synthetic_s", unit: "s", better: "lower", moves: "setup_s"},
		{name: "engine.answers_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "json.mutate_decode_us", unit: "us", better: "lower", moves: "cpu_us_per_req (and the /mutate p50 line)"},
		{name: "topkq.scan_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "topkq.processed", unit: "count", better: "lower", moves: "topk_p50_ms"},
		{name: "cleaning.context_us", unit: "us", better: "lower", moves: "cpu_us_per_req (and the /plan p50 line)"},
		{name: "cleaning.plan_us", unit: "us", better: "lower", moves: "cpu_us_per_req (and the /plan p50 line)"},
		{name: "cleaning.apply_us", unit: "us", better: "lower", moves: "cpu_us_per_req (and the /apply p50 line)"},
		{name: "cleaning.candidates", unit: "count", better: "lower", moves: "cpu_us_per_req (and the /plan p50 line)"},
		{name: "cleaning.collapses_per_apply", unit: "count", better: "higher", moves: "nothing (workload shape)"},
		{name: "store.batch_us", unit: "us", better: "lower", moves: "cpu_us_per_req (and the /mutate p50 line)"},
		{name: "store.fsync_us", unit: "us", better: "lower", moves: "the /mutate p50 line (wall time on this machine's disk, not CPU)"},
		{name: "store.journal_cleaning_us", unit: "us", better: "lower", moves: "cpu_us_per_req (and the /apply p50 line)"},
		{name: "store.checkpoint_ms", unit: "ms", better: "lower", moves: "the /mutate tail line"},
		{name: "store.checkpoints", unit: "count", better: "lower", moves: "the /mutate tail line"},
		{name: "store.wal_bytes_per_op", unit: "bytes", better: "lower", moves: "the /mutate p50 line (write amplification)"},
		{name: "store.disk_bytes_per_tuple", unit: "bytes", better: "lower", moves: "nothing (space amplification)"},
		{name: "store.recover_s", unit: "s", better: "lower", moves: "the restart-after-SIGKILL line"},
	},
	"sharded_churn": {
		{name: "gen.synthetic_s", unit: "s", better: "lower", moves: "setup_s"},
		{name: "shard.batch_us", unit: "us", better: "lower", moves: "cpu_us_per_req (and the /mutate p50 line)"},
		{name: "shard.answers_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
		{name: "shard.quality_us", unit: "us", better: "lower", moves: "daemon.quality_p50_ms"},
		{name: "shard.scanned_per_query", unit: "count", better: "lower", moves: "topk_p50_ms"},
		{name: "shard.opened_per_query", unit: "count", better: "lower", moves: "topk_p50_ms"},
		{name: "shard.imbalance", unit: "ratio", better: "lower", moves: "topk_p50_ms"},
		{name: "json.topk_encode_us", unit: "us", better: "lower", moves: "topk_p50_ms"},
	},
}

// runtimeDefs are measured over each workload's engine-lane replay.
var runtimeDefs = []metricDef{
	{name: "runtime.alloc_mb_per_kreq", unit: "MB", better: "lower", moves: "cpu_us_per_req and rss_peak_mb"},
	{name: "runtime.gc_cycles_per_kreq", unit: "count", better: "lower", moves: "cpu_us_per_req and the /topk tail"},
	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower", moves: "cpu_us_per_req"},
}

// perLayerDefs is the full per-layer list, in BENCHMARK.json order.
func perLayerDefs() []metricDef {
	out := append([]metricDef(nil), daemonDefs...)
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), replayDefs[w.name]...), runtimeDefs...) {
			d.name = w.name + "." + d.name
			d.moves += " on " + w.name
			out = append(out, d)
		}
	}
	return out
}

// traceAll makes the traced replays of a --trace 1 run — the engine and
// layer lanes over a fixed-length sequence of every workload, so every
// per-layer metric means the same in every traced run — and returns every
// per-layer metric.
func traceAll(ctx context.Context, cfg config, w *workload, hr *httpRun, dir string) (map[string]metric, []string, error) {
	out := map[string]metric{}
	var report []string
	passes := map[string]*tracer{}
	var inProcTopK float64 // the run's own workload: in-process /topk p50 (ms)
	for _, o := range workloads {
		start := time.Now()
		sz := traceSizing(o, cfg.tiny)
		pa, err := runPassA(ctx, o, sz, cfg.seed, filepath.Join(dir, "trace-"+o.name))
		if err != nil {
			return nil, nil, err
		}
		pb, err := runPassB(ctx, sz.xtuples, pa.plan)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", o.name, err)
		}
		for _, c := range []struct {
			pass string
			t    *tracer
		}{{"engine", pa.lane.tr}, {"layer", pb.tr}} {
			if err := checkSelfTimes(o.name+"/"+c.pass, c.t); err != nil {
				return nil, nil, err
			}
			passes[o.name+"/"+c.pass] = c.t
		}
		if o == w {
			inProcTopK = median(pa.lane.tr.durations("req.topk")) / 1e3
		}
		vals := layerValues(pa, pb)
		for _, d := range append(append([]metricDef(nil), replayDefs[o.name]...), runtimeDefs...) {
			v, ok := vals[d.name]
			if !ok {
				return nil, nil, fmt.Errorf("%s: no value for %s", o.name, d.name)
			}
			out[o.name+"."+d.name] = metric{Value: v, Unit: d.unit}
		}
		report = append(report, fmt.Sprintf("# traced replay %s: %d requests, engine lane %d spans, layer lane %d spans, answers identical (%.1fs)",
			o.name, pa.requestCount, len(pa.lane.tr.spans), len(pb.tr.spans), time.Since(start).Seconds()))
		// Hand this workload's databases back before replaying the next.
		runtime.GC()
		debug.FreeOSMemory()
	}
	out["daemon.healthz_p50_ms"] = metric{Value: hr.metric("healthz_p50_ms"), Unit: "ms"}
	out["daemon.req_per_s"] = metric{Value: hr.metric("req_per_s"), Unit: "1/s"}
	out["daemon.topk_p95_ms"] = metric{Value: hr.metric("topk_p95_ms"), Unit: "ms"}
	out["daemon.quality_p50_ms"] = metric{Value: hr.metric("quality_p50_ms"), Unit: "ms"}
	out["daemon.outside_frac"] = metric{Value: 1 - inProcTopK/hr.metric("topk_p50_ms"), Unit: "frac"}
	spans := filepath.Join(cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, cfg.seed))
	if err := mkdirFor(spans); err != nil {
		return nil, nil, err
	}
	if err := writeSpans(spans, passes); err != nil {
		return nil, nil, err
	}
	report = append(report, "# spans: "+spans)
	for _, d := range perLayerDefs() {
		if m, ok := out[d.name]; ok {
			report = append(report, fmt.Sprintf("# %-52s %14s %-6s -> %s", d.name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, d.moves))
		}
	}
	return out, report, nil
}

// layerValues computes one workload's replay metrics from its two passes.
func layerValues(pa *passA, pb *layerLane) map[string]float64 {
	a, b := pa.lane.tr, pb.tr
	l := pa.lane
	v := map[string]float64{}
	v["gen.synthetic_s"] = median(a.durations("gen.synthetic")) / 1e6
	v["engine.answers_us"] = median(a.durations("engine.answers"))
	v["engine.quality_us"] = median(a.durations("engine.quality"))
	v["json.topk_encode_us"] = median(a.durations("json.topk_encode"))
	v["json.mutate_decode_us"] = median(a.durations("json.mutate_decode"))
	v["uncertain.commit_us"] = median(a.durations("uncertain.commit"))
	v["uncertain.commit_alloc_kb"] = median(b.allocs("uncertain.commit"))
	v["uncertain.pin_ns"] = median(b.durations("uncertain.pin")) * 1e3
	v["topkq.scan_us"] = median(b.durations("topkq.scan", "req.topk"))
	v["topkq.scan_alloc_kb"] = median(b.allocs("topkq.scan", "req.topk"))
	v["topkq.processed"] = median(pb.processed)
	frac := make([]float64, len(pb.processed))
	for i := range frac {
		frac[i] = pb.processed[i] / pb.n[i]
	}
	v["topkq.processed_frac"] = median(frac)
	v["topkq.rescanned"] = median(pb.rescanned)
	v["topkq.rebuilds"] = median(pb.rebuilds)
	v["topkq.semantics_us"] = median(b.durations("topkq.semantics", "req.topk"))
	v["topkq.ptk_us"] = median(b.durations("topkq.ptk", "req.topk"))
	v["quality.tp_us"] = median(b.durations("quality.tp", "req.topk"))
	v["quality.tp_alloc_kb"] = median(b.allocs("quality.tp", "req.topk"))
	if pb.steps > 0 {
		v["engine.pure_hit_frac"] = float64(pb.pureHits) / float64(pb.steps)
	} else {
		v["engine.pure_hit_frac"] = 0
	}
	v["cleaning.context_us"] = median(a.durations("cleaning.context", "req.plan"))
	v["cleaning.plan_us"] = median(a.durations("cleaning.plan", "req.plan"))
	v["cleaning.apply_us"] = median(a.durations("cleaning.apply"))
	v["cleaning.candidates"] = median(l.candidates)
	v["cleaning.collapses_per_apply"] = mean(l.collapses)
	v["store.batch_us"] = median(a.durations("store.batch"))
	v["store.fsync_us"] = median(a.durations("store.fsync", "req.mutate"))
	v["store.journal_cleaning_us"] = median(a.durations("store.journal_cleaning"))
	v["store.checkpoint_ms"] = median(a.durations("store.checkpoint", "req.mutate", "req.apply")) / 1e3
	v["store.checkpoints"] = float64(len(a.durations("store.checkpoint", "req.mutate", "req.apply")))
	if l.be != nil {
		if l.journaled > 0 {
			v["store.wal_bytes_per_op"] = float64(l.be.walBytes) / float64(l.journaled)
		}
	}
	if pa.finalTuples > 0 {
		v["store.disk_bytes_per_tuple"] = float64(pa.diskBytes) / float64(pa.finalTuples)
	}
	v["store.recover_s"] = pa.recoverSecs
	v["shard.batch_us"] = median(a.durations("shard.batch"))
	v["shard.answers_us"] = median(a.durations("shard.answers"))
	v["shard.quality_us"] = median(a.durations("shard.quality"))
	v["shard.scanned_per_query"] = median(l.scanned)
	v["shard.opened_per_query"] = median(l.opened)
	if len(pa.shardTuples) > 0 {
		hi, sum := 0.0, 0.0
		for _, n := range pa.shardTuples {
			hi = max(hi, float64(n))
			sum += float64(n)
		}
		v["shard.imbalance"] = hi / (sum / float64(len(pa.shardTuples)))
	}
	kreq := float64(pa.requestCount) / 1000
	v["runtime.alloc_mb_per_kreq"] = float64(pa.rtAfter.alloc-pa.rtBefore.alloc) / 1e6 / kreq
	v["runtime.gc_cycles_per_kreq"] = float64(pa.rtAfter.gcs-pa.rtBefore.gcs) / kreq
	if cpu := pa.rtAfter.totalCP - pa.rtBefore.totalCP; cpu > 0 {
		v["runtime.gc_cpu_frac"] = (pa.rtAfter.gcCPU - pa.rtBefore.gcCPU) / cpu
	} else {
		v["runtime.gc_cpu_frac"] = 0
	}
	return v
}

func mkdirFor(path string) error { return os.MkdirAll(filepath.Dir(path), 0o755) }
