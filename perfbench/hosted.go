package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"pbs"
	"pbs/internal/workload"
)

// Shape of hosted-1k-zipf.
const (
	hostedSets    = 1000
	hostedSize    = 1000
	hostedDiff    = 10  // elements each client Set lacks
	hostedToggle  = 3   // elements one HostedUpdate toggles
	hostedZipfS   = 1.2 // skew of the set picked by each sync and update
	hostedConns   = 2
	syncsPerWrite = 4 // one HostedUpdate per this many syncs
	// residentShare caps resident hosted sets at this share of the
	// catalog. At 5% about 40% of syncs page a set in and flush (and
	// fsync) an evicted one on the sync path, and the open-loop tail then
	// tracks the disk's fsync latency rather than the program; 80% keeps
	// cold loads and eviction flushes in the mix at a rate whose tail
	// repeats from run to run.
	residentShare = 0.80
	// drainLimit is how long after the window a queued sync may still
	// start; later ones count as failed.
	drainLimit = 20 * time.Second
)

// hostedEnv is one built instance of hosted-1k-zipf.
type hostedEnv struct {
	dir     string
	srv     *pbs.Server
	ln      *benchListener
	eps     []endpoint
	catalog [][]uint64 // set i as hosted at setup
	clients []*pbs.Set // client i holds catalog[i] minus its first hostedDiff elements

	// locks[i] orders syncs of set i (read) against updates of it
	// (write), so each sync verifies against one known server state.
	locks   []sync.RWMutex
	toggled []bool // guarded by locks[i]: catalog[i][hostedDiff:][:hostedToggle] removed on the server

	hostS, primeS float64 // set-up time spent hosting and building handles, and priming
}

func hostedName(i int) string { return fmt.Sprintf("hosted/s%04d", i) }

// expect returns the exact A△B of set i; the caller holds locks[i].
func (e *hostedEnv) expect(i int) []uint64 {
	n := hostedDiff
	if e.toggled[i] {
		n += hostedToggle
	}
	out := slices.Clone(e.catalog[i][:n])
	slices.Sort(out)
	return out
}

// serverSet returns set i as the server holds it; the caller holds locks[i].
func (e *hostedEnv) serverSet(i int) []uint64 {
	if !e.toggled[i] {
		return e.catalog[i]
	}
	return append(slices.Clone(e.catalog[i][:hostedDiff]), e.catalog[i][hostedDiff+hostedToggle:]...)
}

func (e *hostedEnv) close() {
	for _, ep := range e.eps {
		ep.close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.ln != nil {
		e.ln.Close()
	}
	os.RemoveAll(e.dir)
}

// update toggles hostedToggle elements of set i on the server and returns
// the HostedUpdate call's latency.
func (e *hostedEnv) update(i int) (int64, error) {
	e.locks[i].Lock()
	defer e.locks[i].Unlock()
	elems := e.catalog[i][hostedDiff : hostedDiff+hostedToggle]
	var add, remove []uint64
	if e.toggled[i] {
		add = elems
	} else {
		remove = elems
	}
	start := time.Now()
	err := e.srv.HostedUpdate(hostedName(i), add, remove)
	ns := time.Since(start).Nanoseconds()
	if err == nil {
		e.toggled[i] = !e.toggled[i]
	}
	return ns, err
}

// syncSet runs one verified sync of set i over endpoint ep.
func (e *hostedEnv) syncSet(ep *endpoint, i int, caps *captures, n int) (syncRec, error) {
	e.locks[i].RLock()
	defer e.locks[i].RUnlock()
	expect := e.expect(i)
	rec, err := ep.sync(e.clients[i], expect, pbs.WithSetName(hostedName(i)))
	if err == nil && caps != nil && caps.want(n) {
		caps.add(capture{client: e.catalog[i][hostedDiff:], server: e.serverSet(i), estD: rec.estD, expect: expect})
	}
	return rec, err
}

// setupHosted hosts the catalog on a fresh segment store, builds every
// client Set, dials the connections and primes each client Set with one
// sync, split across the connections.
func setupHosted(catalog [][]uint64) (*hostedEnv, error) {
	e := &hostedEnv{catalog: catalog, locks: make([]sync.RWMutex, len(catalog)), toggled: make([]bool, len(catalog))}
	var err error
	if e.dir, err = os.MkdirTemp(scratchDir, "hosted-"); err != nil {
		return nil, err
	}
	catalogBytes := float64(len(catalog)) * (256 + 8*hostedSize)
	e.srv = pbs.NewServer(pbs.ServerOptions{DataDir: e.dir, MaxResidentBytes: int64(residentShare * catalogBytes)})
	if _, err := e.srv.EnableHosting(); err != nil {
		e.close()
		return nil, err
	}
	start := time.Now()
	e.clients = make([]*pbs.Set, len(catalog))
	for i, elems := range catalog {
		if err := e.srv.Host(hostedName(i), elems); err != nil {
			e.close()
			return nil, err
		}
		if e.clients[i], err = pbs.NewSet(elems[hostedDiff:], pbs.WithFastSync(true)); err != nil {
			e.close()
			return nil, err
		}
	}
	if e.ln, err = newBenchListener(); err != nil {
		e.close()
		return nil, err
	}
	go e.srv.Serve(e.ln)
	for c := 0; c < hostedConns; c++ {
		cc, sc, err := e.ln.dial()
		if err != nil {
			e.close()
			return nil, err
		}
		e.eps = append(e.eps, endpoint{cc: cc, sc: sc})
	}
	e.hostS = sinceS(start)
	start = time.Now()
	// Prime the coldest sets first, so that the hottest are the resident
	// ones when timing starts.
	errs := make(chan error, hostedConns)
	for c := range e.eps {
		go func(c int) {
			for i := len(catalog) - 1 - c; i >= 0; i -= hostedConns {
				if _, err := e.syncSet(&e.eps[c], i, nil, 0); err != nil {
					errs <- fmt.Errorf("priming sync of %s: %w", hostedName(i), err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for range e.eps {
		if perr := <-errs; perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.primeS = sinceS(start)
	return e, nil
}

// Phases of the hosted run, by due time: a warm-up that lets the store's
// background merges from set-up settle (verified, not measured), the
// untraced window and, in a traced run, the traced window.
const (
	phaseWarmup = iota
	phaseUntraced
	phaseTraced
	phases
)

// warmup is the length of the hosted warm-up phase.
const warmup = 2 * time.Second

// job is one scheduled sync.
type job struct {
	due   time.Time
	set   int
	phase int
	n     int // 1-based sync number within its phase
}

// loadRun is one open-loop run over the hosted env.
type loadRun struct {
	e    *hostedEnv
	rep  *report
	tr   *tracer
	caps *captures

	start, end time.Time
	bounds     [phases]time.Time // start of each phase

	mu   sync.Mutex // guards rep and the windows
	wins [phases]*window
	cur  int
	n    [phases]int
}

func (r *loadRun) phaseOf(due time.Time) int {
	ph := phaseWarmup
	for i := phaseUntraced; i < phases; i++ {
		if !due.Before(r.bounds[i]) {
			ph = i
		}
	}
	return ph
}

// next assigns a job its phase and number, opening the phase's window
// when the job is the phase's first. The caller holds mu.
func (r *loadRun) next(due time.Time, set int) job {
	ph := r.phaseOf(due)
	if ph > r.cur {
		if w := r.wins[r.cur]; w != nil {
			w.finish(r.e.srv)
		}
		r.cur = ph
		r.wins[ph] = beginWindow(r.e.srv)
	}
	r.n[ph]++
	return job{due: due, set: set, phase: ph, n: r.n[ph]}
}

// openLoop issues syncs of zipf-chosen sets at a fixed rate to
// hostedConns workers and HostedUpdates at a quarter of that rate: a
// warm-up, then a window of length d whose second half is traced when tr
// is set. Each sync is timed from its due time. It returns the untraced
// and traced windows.
func (e *hostedEnv) openLoop(rate float64, d time.Duration, seed int64, tr *tracer, caps *captures, rep *report) (untraced, traced *window) {
	r := &loadRun{e: e, rep: rep, tr: tr, caps: caps, start: time.Now()}
	r.bounds[phaseUntraced] = r.start.Add(warmup)
	r.end = r.bounds[phaseUntraced].Add(d)
	r.bounds[phaseTraced] = r.end
	if tr != nil {
		r.bounds[phaseTraced] = r.bounds[phaseUntraced].Add(d / 2)
	}
	r.wins[phaseWarmup] = beginWindow(e.srv)

	interval := time.Duration(float64(time.Second) / rate)
	pick := rand.NewZipf(rand.New(rand.NewSource(seed)), hostedZipfS, 1, hostedSets-1)
	var wg sync.WaitGroup

	// The queue holds every sync of the run, so the generator never
	// blocks on a backlog and its lateness is its own.
	jobs := make(chan job, int(r.end.Sub(r.start)/interval)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for k := 0; ; k++ {
			due := r.start.Add(time.Duration(k) * interval)
			if !due.Before(r.end) {
				return
			}
			time.Sleep(time.Until(due))
			late := time.Since(due).Nanoseconds()
			r.mu.Lock()
			j := r.next(due, int(pick.Uint64()))
			r.wins[j.phase].lateNs = append(r.wins[j.phase].lateNs, late)
			r.mu.Unlock()
			jobs <- j
		}
	}()

	// Updater: HostedUpdate on a zipf-chosen set at a quarter of the rate.
	updPick := rand.NewZipf(rand.New(rand.NewSource(seed+1)), hostedZipfS, 1, hostedSets-1)
	updEvery := interval * syncsPerWrite
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			due := r.start.Add(updEvery/2 + time.Duration(k)*updEvery)
			if !due.Before(r.end) {
				return
			}
			time.Sleep(time.Until(due))
			ns, err := e.update(int(updPick.Uint64()))
			r.mu.Lock()
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.note("HostedUpdate failed: %v", err)
			} else if w := r.wins[r.phaseOf(due)]; w != nil {
				w.addUpdate(ns)
			}
			r.mu.Unlock()
		}
	}()

	for c := range e.eps {
		wg.Add(1)
		go func(ep *endpoint) {
			defer wg.Done()
			for j := range jobs {
				r.work(ep, j)
			}
		}(&e.eps[c])
	}
	wg.Wait()

	// The delivered rate runs from the window's first due time to its last
	// completion, so a backlog that drained past the window lowers it.
	last := r.wins[r.cur]
	last.seconds = float64(nowNs()-int64(r.bounds[r.cur].Sub(epoch))) / 1e9
	last.finish(e.srv)
	return r.wins[phaseUntraced], r.wins[phaseTraced]
}

// work runs one job on a worker's connection and records it.
func (r *loadRun) work(ep *endpoint, j job) {
	traced := j.phase == phaseTraced
	if (ep.cc.tr.Load() != nil) != traced {
		if traced {
			setTracer(ep.cc, ep.sc, r.tr)
		} else {
			setTracer(ep.cc, ep.sc, nil)
		}
	}
	if time.Now().After(r.end.Add(drainLimit)) {
		r.mu.Lock()
		r.rep.attempted++
		r.rep.failed++
		r.rep.note("sync due at %s dropped: still queued %s after the window", j.due.Format(time.StampMilli), drainLimit)
		r.mu.Unlock()
		return
	}
	var caps *captures
	if traced {
		caps = r.caps
	}
	rec, err := r.e.syncSet(ep, j.set, caps, j.n)
	rec.latNs = time.Since(j.due).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rep.attempted++
	switch {
	case err != nil:
		r.rep.failed++
		r.rep.note("sync of %s failed: %v", hostedName(j.set), err)
	case !rec.accounted():
		r.rep.fail("sync bytes %d != estimator %d + core %d + framing %d", rec.bytes, rec.estBytes, rec.coreBytes, frameHeader*rec.frames)
	default:
		r.wins[j.phase].addSync(rec)
	}
}

func runHosted(cfg runConfig, rep *report) error {
	rep.note("workload %s: open loop at %g syncs/s over %d connections; %d hosted sets of %d elements, resident cap %.0f%% of the catalog, zipf(s=%g) set choice, one HostedUpdate per %d syncs, |A△B| in {%d,%d}",
		cfg.workload, cfg.hostedRate, hostedConns, hostedSets, hostedSize, 100*residentShare, hostedZipfS, syncsPerWrite, hostedDiff, hostedDiff+hostedToggle)

	catalog := make([][]uint64, hostedSets)
	for i := range catalog {
		catalog[i] = workload.ManySet(cfg.seed, i, hostedSize)
	}
	var env *hostedEnv
	var setupS []float64
	for i := 0; i < setups; i++ {
		if env != nil {
			env.close()
			env = nil
			freeMemory()
		}
		start := time.Now()
		e, err := setupHosted(catalog)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, sinceS(start))
		rep.note("setup %d: %.3f s, of which hosting and handles %.3f s, priming syncs %.3f s", i+1, setupS[i], e.hostS, e.primeS)
		env = e
	}
	defer env.close()
	rep.e2e["setup_s"] = metric{median(setupS), "s"}

	window := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	var caps *captures
	if cfg.trace {
		tr = &tracer{}
		caps = newCaptures(true)
	}
	untraced, traced := env.openLoop(cfg.hostedRate, window, cfg.seed, tr, caps, rep)
	rep.note("generator lateness over the untraced window: p50 %.3f ms, p99 %.3f ms",
		quantile(untraced.lateNs, 0.5)/1e6, quantile(untraced.lateNs, 0.99)/1e6)
	s := env.srv.Stats()
	rep.note("server: cold loads %d, evictions %d, merges %d, resident %d of %d sets", s.ColdLoads, s.Evictions, s.SegmentMerges, s.SetsResident, s.SetsHosted)
	if !cfg.trace {
		untraced.endToEnd(rep.e2e, rep)
		return nil
	}
	if traced == nil || len(traced.recs) == 0 {
		return fmt.Errorf("traced half of the window completed no sync")
	}
	traced.layers(rep.layers, rep)
	traceOverhead(rep.layers, untraced, traced)
	rep.spans = tr.spans
	return replayLayers(caps, catalog[0][hostedDiff:], cfg.seed, rep)
}
