package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// httpRun is the outcome of the daemon side of a run.
type httpRun struct {
	setups    []float64 // seconds from exec to healthy, one per set-up
	restart   float64   // durable_clean: seconds from exec to healthy after SIGKILL
	rssMB     float64
	cpuSecs   float64 // daemon CPU time over the measured phase
	measured  *phase
	attempted int
	failed    int
	firstErr  string
}

func (h *httpRun) fail(msg string) {
	h.failed++
	if h.firstErr == "" {
		h.firstErr = msg
	}
}

// check counts one answer check; a mismatch is a failed attempt.
func (h *httpRun) check(name string, ok bool, detail string) {
	h.attempted++
	if !ok {
		h.fail(name + ": " + detail)
	}
}

func daemonArgs(w *workload, sz sizing, storeDir string) []string {
	args := []string{
		"-synthetic", strconv.Itoa(sz.xtuples),
		"-seed", strconv.FormatInt(dataSeed, 10),
		"-k", strconv.Itoa(queryK),
		"-threshold", strconv.FormatFloat(queryThreshold, 'g', -1, 64),
	}
	if w.durable {
		args = append(args, "-store", storeDir, "-store-backend", "file", "-fsync=true", "-checkpoint-every", "256")
	}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	return args
}

// setups is how many times a run sets the daemon up; setup_s is their
// median and the last one serves the run.
const setups = 3

func runHTTP(ctx context.Context, cfg config, w *workload, sz sizing, dir string, p *plan) (*httpRun, error) {
	storeDir := filepath.Join(dir, "daemon-store")
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := daemonArgs(w, sz, storeDir)
	h := &httpRun{}
	var d *daemon
	for i := 0; i < setups; i++ {
		if err := os.RemoveAll(storeDir); err != nil {
			return nil, err
		}
		var took time.Duration
		d, took, err = startDaemon(cfg.daemon, args, logf, w.conns)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w (log: %s)", i, err, logf.Name())
		}
		h.setups = append(h.setups, took.Seconds())
		if i < setups-1 {
			d.kill()
		}
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	warm := d.drive(ctx, p.conns, true)
	h.attempted += warm.attempted
	h.failed += warm.failed
	if warm.firstErr != "" {
		h.firstErr = "warm-up: " + warm.firstErr
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	h.measured = d.drive(ctx, p.conns, false)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	h.cpuSecs = cpu1 - cpu0
	h.attempted += h.measured.attempted
	h.failed += h.measured.failed
	if h.firstErr == "" && h.measured.firstErr != "" {
		h.firstErr = h.measured.firstErr
	}
	after, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	h.finalChecks(ctx, d, p, after.Version)
	if h.rssMB, err = d.hwmMB(); err != nil {
		return nil, err
	}
	if w.durable {
		// Crash the daemon and restart it on the same store: it must come
		// back at the last acknowledged version with the same answers.
		d.kill()
		var took time.Duration
		d, took, err = startDaemon(cfg.daemon, args, logf, w.conns)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w (log: %s)", err, logf.Name())
		}
		h.restart = took.Seconds()
		st, err := d.stats(ctx)
		if err != nil {
			return nil, err
		}
		h.check("restart version", st.Version == p.lastVersion, fmt.Sprintf("v%d after restart, last acknowledged v%d", st.Version, p.lastVersion))
		body, err := d.get(ctx, "/topk")
		h.check("restart /topk", err == nil && bytes.Equal(body, p.finalTopK), fmt.Sprintf("%v: %s", err, body))
	}
	return h, nil
}

// finalChecks compares the daemon's final answers with the replay's.
func (h *httpRun) finalChecks(ctx context.Context, d *daemon, p *plan, version uint64) {
	h.check("final version", version == p.lastVersion, fmt.Sprintf("daemon at v%d, replay at v%d", version, p.lastVersion))
	body, err := d.get(ctx, "/topk")
	h.check("final /topk", err == nil && bytes.Equal(body, p.finalTopK), fmt.Sprintf("%v:\n got %s\nwant %s", err, body, p.finalTopK))
	body, err = d.get(ctx, "/quality?k="+strconv.Itoa(qualityK))
	h.check("final /quality", err == nil && bytes.Equal(body, p.finalQuality), fmt.Sprintf("%v:\n got %s\nwant %s", err, body, p.finalQuality))
}

// metric returns an end-to-end metric by name.
func (h *httpRun) metric(name string) float64 {
	switch name {
	case "setup_s":
		return median(h.setups)
	case "rss_peak_mb":
		return h.rssMB
	case "req_per_s":
		return float64(h.measured.attempted) / h.measured.wall.Seconds()
	case "cpu_us_per_req":
		return h.cpuSecs * 1e6 / float64(h.measured.attempted)
	case "topk_p50_ms":
		return quantile(h.measured.lat[kTopK], 0.5)
	case "topk_p95_ms":
		return quantile(h.measured.lat[kTopK], 0.95)
	case "quality_p50_ms":
		return quantile(h.measured.lat[kQuality], 0.5)
	case "healthz_p50_ms":
		return quantile(h.measured.lat[kHealthz], 0.5)
	case "ok_frac":
		return 1 - float64(h.failed)/float64(h.attempted)
	}
	panic("unknown end-to-end metric " + name) // the metric tables are fixed
}

// report prints every route's latency with its sample count, the
// set-up and restart times, and the error fraction.
func (h *httpRun) report() []string {
	out := []string{
		fmt.Sprintf("# setup_s: %v (median %.4f)", fmtList(h.setups), median(h.setups)),
		fmt.Sprintf("# measured: %d requests in %.3fs = %.1f req/s, daemon cpu %.3fs = %.1f us/req, rss_peak_mb=%.1f",
			h.measured.attempted, h.measured.wall.Seconds(), h.metric("req_per_s"), h.cpuSecs, h.metric("cpu_us_per_req"), h.rssMB),
	}
	for k := kind(0); k < numKinds; k++ {
		lat := h.measured.lat[k]
		if len(lat) == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("# %-8s n=%-6d p50_ms=%.4f p90_ms=%.4f %s max_ms=%.4f",
			kindNames[k], len(lat), quantile(lat, 0.5), quantile(lat, 0.9), tail(lat), quantile(lat, 1)))
	}
	if h.restart > 0 {
		out = append(out, fmt.Sprintf("# restart after SIGKILL: healthy in %.4fs on the kept store", h.restart))
	}
	out = append(out, fmt.Sprintf("# error_frac=%g (%d failed of %d attempted, answer checks included)",
		float64(h.failed)/float64(h.attempted), h.failed, h.attempted))
	return out
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(x, 'f', 4, 64)
	}
	return s + "]"
}

// tail formats the highest of p99, p95 and p90 that has at least ten
// samples beyond it.
func tail(lat []float64) string {
	for _, q := range []float64{0.99, 0.95, 0.9} {
		if float64(len(lat))*(1-q) >= 10 {
			return fmt.Sprintf("p%g_ms=%.4f", q*100, quantile(lat, q))
		}
	}
	return "(too few samples for a tail)"
}
