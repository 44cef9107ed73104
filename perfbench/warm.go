package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"pbs"
	"pbs/internal/workload"
)

// warmSpec describes a single-client closed-loop workload: one warm Set of
// size elements syncing over one held connection against server sets that
// each lack d of them.
type warmSpec struct {
	size  int
	d     int
	churn int // elements toggled between syncs; 0 = read-only
	// views is how many server sets the client cycles through, each
	// lacking a different d elements. Each is a fresh draw of which groups
	// collide, so on a read-only workload, where every sync against one
	// set repeats the same computation, the rounds a run reports average
	// over that many draws instead of one.
	views int
}

var warmSpecs = map[string]warmSpec{
	"warm-500k-d10": {size: 500_000, d: 10, churn: 5, views: 1},
	"warm-50k-d10k": {size: 50_000, d: 10_000, views: 32},
}

// warmView is one server set of a warm workload.
type warmView struct {
	name   string   // registry name; DefaultSetName for a single view
	server []uint64 // the server's elements: A minus base
	base   []uint64 // the part of A△B that never changes, ascending
}

// makeViews draws spec.views server sets from A. The first is the
// generated pair's B; each further one lacks a different random d
// elements of A.
func makeViews(spec warmSpec, pair *workload.Pair, seed int64) []warmView {
	views := make([]warmView, spec.views)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for k := range views {
		v := &views[k]
		v.name = pbs.DefaultSetName
		if spec.views > 1 {
			v.name = fmt.Sprintf("warm/b%02d", k)
		}
		if k == 0 {
			v.server, v.base = pair.B, slices.Clone(pair.Diff)
		} else {
			a := slices.Clone(pair.A)
			for i := 0; i < spec.d; i++ {
				j := i + rng.Intn(len(a)-i)
				a[i], a[j] = a[j], a[i]
			}
			v.base, v.server = a[:spec.d], a[spec.d:]
		}
		slices.Sort(v.base)
	}
	return views
}

// primingSyncs is how many syncs each setup runs before timing starts: the
// cold first sync plus warm ones that settle the speculation prior.
const primingSyncs = 4

// warmEnv is one built instance of a warm workload.
type warmEnv struct {
	srv   *pbs.Server
	ln    *benchListener
	ep    endpoint
	set   *pbs.Set
	churn churner
	views []warmView
	next  int // index of the view the next sync targets
}

// churner toggles elements the client and server share: one step removes
// n of them from the client, the next adds them back, so |A△B| alternates
// between d+n and d. A read-only workload (n = 0) instead times an
// idempotent Add, which leaves the set and its cached view unchanged, so
// that update_p50_us is still a measured figure on it.
type churner struct {
	rng    *rand.Rand
	shared []uint64
	n      int
	parked []uint64 // removed from the client, still on the server
}

func (c *churner) step(set *pbs.Set) (int64, error) {
	if c.n == 0 {
		x := c.shared[c.rng.Intn(len(c.shared))]
		start := time.Now()
		added, err := set.Add(x)
		ns := time.Since(start).Nanoseconds()
		if err == nil && added != 0 {
			err = fmt.Errorf("idempotent Add inserted %d elements", added)
		}
		return ns, err
	}
	if len(c.parked) > 0 {
		start := time.Now()
		added, err := set.Add(c.parked...)
		ns := time.Since(start).Nanoseconds()
		if err == nil && added != len(c.parked) {
			err = fmt.Errorf("Add re-inserted %d of %d elements", added, len(c.parked))
		}
		c.parked = c.parked[:0]
		return ns, err
	}
	for len(c.parked) < c.n {
		x := c.shared[c.rng.Intn(len(c.shared))]
		if !slices.Contains(c.parked, x) {
			c.parked = append(c.parked, x)
		}
	}
	start := time.Now()
	removed := set.Remove(c.parked...)
	ns := time.Since(start).Nanoseconds()
	if removed != len(c.parked) {
		return ns, fmt.Errorf("Remove deleted %d of %d elements", removed, len(c.parked))
	}
	return ns, nil
}

// syncNext runs one verified sync against the next view in turn.
func (e *warmEnv) syncNext() (syncRec, capture, error) {
	v := &e.views[e.next]
	e.next = (e.next + 1) % len(e.views)
	expect := v.base
	if len(e.churn.parked) > 0 {
		expect = append(slices.Clone(v.base), e.churn.parked...)
		slices.Sort(expect)
	}
	var opts []pbs.Option
	if len(e.views) > 1 {
		opts = append(opts, pbs.WithSetName(v.name))
	}
	rec, err := e.ep.sync(e.set, expect, opts...)
	return rec, capture{server: v.server, estD: rec.estD, expect: expect}, err
}

func (e *warmEnv) close() {
	e.ep.close()
	e.srv.Close()
	e.ln.Close()
}

// setupWarm builds the workload from its generated inputs and primes it:
// server, listener, connection, client Set and the priming syncs. It
// returns the byte and round counts of the priming syncs, which depend
// only on the seed.
func setupWarm(spec warmSpec, pair *workload.Pair, views []warmView, seed int64) (*warmEnv, []int64, error) {
	e := &warmEnv{views: views}
	e.churn = churner{rng: rand.New(rand.NewSource(seed)), shared: pair.B, n: spec.churn}

	e.srv = pbs.NewServer(pbs.ServerOptions{})
	for _, v := range views {
		if err := e.srv.Register(v.name, v.server); err != nil {
			return nil, nil, err
		}
	}
	var err error
	if e.ln, err = newBenchListener(); err != nil {
		return nil, nil, err
	}
	go e.srv.Serve(e.ln)
	cc, sc, err := e.ln.dial()
	if err != nil {
		e.srv.Close()
		return nil, nil, err
	}
	e.ep = endpoint{cc: cc, sc: sc}
	if e.set, err = pbs.NewSet(pair.A, pbs.WithFastSync(true)); err != nil {
		e.close()
		return nil, nil, err
	}
	var seq []int64
	for i := 0; i < max(primingSyncs, len(views)); i++ {
		if i > 0 {
			if _, err := e.churn.step(e.set); err != nil {
				e.close()
				return nil, nil, err
			}
		}
		rec, _, err := e.syncNext()
		if err != nil {
			e.close()
			return nil, nil, fmt.Errorf("priming sync %d: %w", i, err)
		}
		seq = append(seq, rec.bytes, int64(rec.rounds))
	}
	return e, seq, nil
}

// measure runs the closed loop until the deadline: one update, then one
// verified sync, back to back. Each sync is due when the previous one
// returned; how late the loop issues it, less the update's own time, is
// the generator's lateness.
func (e *warmEnv) measure(w *window, until time.Time, tr *tracer, caps *captures, rep *report) {
	setTracer(e.ep.cc, e.ep.sc, tr)
	defer setTracer(e.ep.cc, e.ep.sc, nil)
	due := nowNs()
	for time.Now().Before(until) {
		rep.attempted++
		ns, err := e.churn.step(e.set)
		if err != nil {
			rep.failed++
			rep.note("update failed: %v", err)
			continue
		}
		w.addUpdate(ns)
		rep.attempted++
		w.lateNs = append(w.lateNs, nowNs()-due-ns)
		rec, cp, err := e.syncNext()
		due = nowNs()
		if err != nil {
			rep.failed++
			rep.note("sync failed: %v", err)
			continue
		}
		if !rec.accounted() {
			rep.fail("sync bytes %d != estimator %d + core %d + framing %d", rec.bytes, rec.estBytes, rec.coreBytes, frameHeader*rec.frames)
		}
		w.addSync(rec)
		if caps != nil && caps.want(len(w.recs)) {
			t := nowNs()
			cp.client = e.set.Elements()
			caps.add(cp)
			due += nowNs() - t // capturing is tracing work, not the loop's
		}
	}
}

func runWarm(cfg runConfig, rep *report) error {
	spec := warmSpecs[cfg.workload]
	rep.note("workload %s: closed loop, 1 connection, |A|=%d, %d server set(s) of |A|-%d, churn %d per sync, WithFastSync(true)",
		cfg.workload, spec.size, spec.views, spec.d, spec.churn)
	pair, err := workload.Generate(workload.Config{UniverseBits: 32, SizeA: spec.size, D: spec.d, Seed: cfg.seed})
	if err != nil {
		return err
	}
	views := makeViews(spec, pair, cfg.seed)

	var env *warmEnv
	var setupS []float64
	var first []int64
	for i := 0; i < setups; i++ {
		if env != nil {
			env.close()
			env = nil
			freeMemory()
		}
		start := time.Now()
		e, seq, err := setupWarm(spec, pair, views, cfg.seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, sinceS(start))
		env = e
		// Self-check: the same seed and sync count give the same bytes and
		// rounds on every setup.
		if first == nil {
			first = seq
		} else if !slices.Equal(first, seq) {
			rep.fail("priming syncs not deterministic: bytes/rounds %v then %v", first, seq)
		}
	}
	defer env.close()
	rep.e2e["setup_s"] = metric{median(setupS), "s"}
	rep.note("setup_s runs: %v", setupS)

	window := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		w := beginWindow(env.srv)
		env.measure(w, time.Now().Add(window), nil, nil, rep)
		w.finish(env.srv)
		w.endToEnd(rep.e2e, rep)
		return nil
	}

	half := window / 2
	untraced := beginWindow(env.srv)
	env.measure(untraced, time.Now().Add(half), nil, nil, rep)
	untraced.finish(env.srv)

	tr := &tracer{}
	caps := newCaptures(spec.churn == 0)
	traced := beginWindow(env.srv)
	env.measure(traced, time.Now().Add(half), tr, caps, rep)
	traced.finish(env.srv)
	traced.layers(rep.layers, rep)
	traceOverhead(rep.layers, untraced, traced)
	rep.spans = tr.spans

	return replayLayers(caps, pair.A, cfg.seed, rep)
}
