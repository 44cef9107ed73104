package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"pbs"
)

// sigBytes is the element signature width on the wire: the default
// 32-bit SigBits. The information floor of a sync is |A△B|·sigBytes.
const sigBytes = 4

// syncTimeout bounds one sync; a sync that needs longer counts as failed.
const syncTimeout = 20 * time.Second

// syncRec is what one verified sync measured.
type syncRec struct {
	latNs     int64 // from the sync's due time (open loop) or its call (closed loop)
	wallNs    int64 // duration of the Set.Sync call
	bytes     int64 // wire bytes, both directions, frame headers included
	frames    int64
	estBytes  int64 // Result.EstimatorBytes: hello envelope and estimate reply
	coreBytes int64 // core round messages, both directions
	rounds    int
	diff      int // exact |A△B|
	estD      int // Result.EstimatedD
	writeNs   int64
	waitNs    int64
	respNs    int64
}

// endpoint is one client connection and the server end it talks to.
type endpoint struct {
	cc *clientConn
	sc *serverConn
}

func (e *endpoint) close() { e.cc.Close() }

// syncSeq numbers syncs across all connections, tying spans together.
var syncSeq atomic.Int64

// sync runs one Set.Sync over the endpoint and verifies the learned
// difference against expect, the exact A△B in ascending order.
func (e *endpoint) sync(set *pbs.Set, expect []uint64, opts ...pbs.Option) (syncRec, error) {
	tr := e.cc.tr.Load()
	id := syncSeq.Add(1)
	e.cc.syncID.Store(id)
	b0, f0 := e.cc.st.bytes.Load(), e.cc.st.frames.Load()
	w0, wt0, r0 := e.cc.st.writeNs.Load(), e.cc.st.waitNs.Load(), e.sc.selfNs.Load()
	ctx, cancel := context.WithTimeout(context.Background(), syncTimeout)
	start := nowNs()
	res, err := set.Sync(ctx, e.cc, opts...)
	end := nowNs()
	cancel()
	if tr != nil {
		tr.span(id, "pbs.sync", "", start, end)
	}
	rec := syncRec{
		latNs:   end - start,
		wallNs:  end - start,
		bytes:   e.cc.st.bytes.Load() - b0,
		frames:  e.cc.st.frames.Load() - f0,
		diff:    len(expect),
		writeNs: e.cc.st.writeNs.Load() - w0,
		waitNs:  e.cc.st.waitNs.Load() - wt0,
		respNs:  e.sc.selfNs.Load() - r0,
	}
	if err != nil {
		return rec, err
	}
	rec.estBytes = int64(res.EstimatorBytes)
	rec.coreBytes = int64(res.WireBytes - res.EstimatorBytes)
	rec.rounds = res.Rounds
	rec.estD = res.EstimatedD
	if !res.Complete {
		return rec, fmt.Errorf("sync incomplete after %d rounds", res.Rounds)
	}
	got := slices.Clone(res.Difference)
	slices.Sort(got)
	if !slices.Equal(got, expect) {
		return rec, fmt.Errorf("learned difference of %d elements, want the exact %d", len(got), len(expect))
	}
	return rec, nil
}

// accounted reports whether the estimator, core-payload and framing bytes
// of the sync sum exactly to the bytes counted on the connection.
func (r syncRec) accounted() bool {
	return r.estBytes+r.coreBytes+frameHeader*r.frames == r.bytes
}

// window is one measured interval of a workload. Its callers serialize
// the add calls.
type window struct {
	start   int64   // span clock
	seconds float64 // length used for rates; set by finish unless preset
	recs    []syncRec
	updates []int64 // duration of each update call
	lateNs  []int64 // how late the generator issued each sync after it was due

	cpu0, cpu1     float64
	mem0, mem1     runtime.MemStats
	stats0, stats1 pbs.ServerStats
}

func beginWindow(srv *pbs.Server) *window {
	w := &window{start: nowNs(), stats0: srv.Stats()}
	runtime.ReadMemStats(&w.mem0)
	w.cpu0 = cpuSeconds()
	return w
}

func (w *window) addSync(r syncRec) { w.recs = append(w.recs, r) }

func (w *window) addUpdate(ns int64) { w.updates = append(w.updates, ns) }

func (w *window) finish(srv *pbs.Server) {
	w.cpu1 = cpuSeconds()
	runtime.ReadMemStats(&w.mem1)
	w.stats1 = srv.Stats()
	if w.seconds == 0 {
		w.seconds = float64(nowNs()-w.start) / 1e9
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func latencies(recs []syncRec) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.latNs
	}
	return out
}

// mean returns the mean over the window's syncs of f.
func (w *window) mean(f func(r syncRec) float64) float64 {
	if len(w.recs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range w.recs {
		sum += f(r)
	}
	return sum / float64(len(w.recs))
}

// perSync divides a window total by the sync count.
func (w *window) perSync(total float64) float64 {
	if len(w.recs) == 0 {
		return 0
	}
	return total / float64(len(w.recs))
}

// endToEnd fills the end-to-end metrics measured over the whole window w:
// latency quantiles over all its syncs, update p50 over all its updates,
// and process CPU time, bytes and rounds divided by its sync count.
func (w *window) endToEnd(m map[string]metric, rep *report) {
	var bytes, floor int64
	for _, r := range w.recs {
		bytes += r.bytes
		floor += int64(r.diff) * sigBytes
	}
	lat := latencies(w.recs)
	m["sync_p50_ms"] = metric{quantile(lat, 0.50) / 1e6, "ms"}
	m["sync_p90_ms"] = metric{quantile(lat, 0.90) / 1e6, "ms"}
	m["syncs_per_s"] = metric{float64(len(w.recs)) / w.seconds, "1/s"}
	m["cpu_ms_per_sync"] = metric{w.perSync((w.cpu1 - w.cpu0) * 1e3), "ms"}
	m["wire_bytes_per_sync"] = metric{w.perSync(float64(bytes)), "bytes"}
	m["wire_over_floor"] = metric{float64(bytes) / float64(max(floor, 1)), "ratio"}
	m["rounds_per_sync"] = metric{w.mean(func(r syncRec) float64 { return float64(r.rounds) }), "count"}
	m["update_p50_us"] = metric{quantile(w.updates, 0.50) / 1e3, "us"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	rep.note("window: %d verified syncs and %d updates over %.2f s", len(w.recs), len(w.updates), w.seconds)
}

// layers fills the per-layer metrics the traced window w measured, and
// runs the self-check that the blocking steps account for the sync time.
func (w *window) layers(m map[string]metric, rep *report) {
	us := func(ns float64) float64 { return ns / 1e3 }
	m["pbs.conn.write_us_per_sync"] = metric{us(w.mean(func(r syncRec) float64 { return float64(r.writeNs) })), "us"}
	m["pbs.conn.wait_us_per_sync"] = metric{us(w.mean(func(r syncRec) float64 { return float64(r.waitNs) })), "us"}
	m["pbs.conn.frames_per_sync"] = metric{w.mean(func(r syncRec) float64 { return float64(r.frames) }), "count"}
	m["pbs.conn.framing_bytes_per_sync"] = metric{w.mean(func(r syncRec) float64 { return float64(frameHeader * r.frames) }), "bytes"}
	m["pbs.sync.initiator_self_us_per_sync"] = metric{us(w.mean(func(r syncRec) float64 { return float64(r.wallNs - r.waitNs - r.writeNs) })), "us"}
	m["pbs.sync.responder_self_us_per_sync"] = metric{us(w.mean(func(r syncRec) float64 { return float64(r.respNs) })), "us"}
	m["pbs.sync.unaccounted_us_per_sync"] = metric{us(w.mean(func(r syncRec) float64 { return float64(r.writeNs + r.waitNs - r.respNs) })), "us"}
	m["pbs.sync.one_round_frac"] = metric{w.mean(func(r syncRec) float64 { return b2f(r.rounds == 1) }), "ratio"}
	m["pbs.sync.estimator_bytes_per_sync"] = metric{w.mean(func(r syncRec) float64 { return float64(r.estBytes) }), "bytes"}
	m["core.payload_bytes_per_sync"] = metric{w.mean(func(r syncRec) float64 { return float64(r.coreBytes) }), "bytes"}

	d := func(a, b int64) float64 { return w.perSync(float64(b - a)) }
	s0, s1 := w.stats0, w.stats1
	m["pbs.hosting.cold_loads_per_sync"] = metric{d(s0.ColdLoads, s1.ColdLoads), "count"}
	m["pbs.hosting.evictions_per_sync"] = metric{d(s0.Evictions, s1.Evictions), "count"}
	m["pbs.hosting.merges_per_sync"] = metric{d(s0.SegmentMerges, s1.SegmentMerges), "count"}
	m["pbs.hosting.adaptive_replans_per_sync"] = metric{d(s0.AdaptiveReplans, s1.AdaptiveReplans), "count"}
	m["pbs.hosting.prior_hit_frac"] = metric{d(s0.PriorHits, s1.PriorHits), "ratio"}
	m["pbs.hosting.rejections_per_sync"] = metric{d(s0.Rejected+s0.QuotaRejections, s1.Rejected+s1.QuotaRejections), "count"}
	m["pbs.hosting.resident_bytes"] = metric{float64(s1.ResidentBytes), "bytes"}

	m["go.allocs_per_sync"] = metric{w.perSync(float64(w.mem1.Mallocs - w.mem0.Mallocs)), "count"}
	m["go.alloc_bytes_per_sync"] = metric{w.perSync(float64(w.mem1.TotalAlloc - w.mem0.TotalAlloc)), "bytes"}
	m["go.gc_pause_us_per_sync"] = metric{us(w.perSync(float64(w.mem1.PauseTotalNs - w.mem0.PauseTotalNs))), "us"}
	m["loadgen.late_us_p99"] = metric{quantile(w.lateNs, 0.99) / 1e3, "us"}

	// The responder works while the initiator is blocked writing to or
	// waiting on the connection, so its self time must fit inside those
	// two; what is left is loopback transit and scheduling, reported as
	// unaccounted. Initiator self, responder self and unaccounted time
	// then sum to each sync's wall time.
	var blocked, resp int64
	for _, r := range w.recs {
		blocked += r.writeNs + r.waitNs
		resp += r.respNs
	}
	if float64(resp) > 1.05*float64(blocked)+1e6 {
		rep.fail("responder self time %.1f ms exceeds initiator write+wait %.1f ms", float64(resp)/1e6, float64(blocked)/1e6)
	}
}

// traceOverhead reports the traced window's sync latency against the
// untraced window's, both measured in the same run.
func traceOverhead(m map[string]metric, untraced, traced *window) {
	p0 := quantile(latencies(untraced.recs), 0.5)
	p1 := quantile(latencies(traced.recs), 0.5)
	m["trace.sync_p50_ms_untraced"] = metric{p0 / 1e6, "ms"}
	m["trace.sync_p50_ms_traced"] = metric{p1 / 1e6, "ms"}
	m["trace.overhead_pct"] = metric{100 * (p1 - p0) / p0, "%"}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
