package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"pbs"
	"pbs/internal/core"
	"pbs/internal/estimator"
	"pbs/internal/msethash"
	"pbs/internal/setstore"
	"pbs/internal/workload"
)

// capture is the input of one traced sync, kept for the core replay.
type capture struct {
	client []uint64 // initiator's elements at sync time
	server []uint64 // responder's elements at sync time
	estD   int      // the sync's Result.EstimatedD
	expect []uint64 // exact A△B, ascending
}

// captures samples traced syncs for the replay: every eighth, at most six.
type captures struct {
	// warmClient says the workload syncs from a cached client view, so the
	// replay warms the client snapshot's partition outside the timing.
	warmClient bool

	mu   sync.Mutex
	list []capture
}

const (
	captureEvery = 8
	captureMax   = 6
)

func newCaptures(warmClient bool) *captures { return &captures{warmClient: warmClient} }

// want reports whether the n-th traced sync (1-based) should be captured.
func (c *captures) want(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.list) < captureMax && n%captureEvery == 1
}

func (c *captures) add(cp capture) {
	c.mu.Lock()
	c.list = append(c.list, cp)
	c.mu.Unlock()
}

// timed runs fn and returns its wall time in ns and the heap allocations
// the process made meanwhile.
func timed(fn func() error) (ns, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err = fn()
	ns = float64(time.Since(start).Nanoseconds())
	runtime.ReadMemStats(&m1)
	return ns, float64(m1.Mallocs - m0.Mallocs), err
}

// coreCalls are the public internal/core calls of one sync, in the order
// a sync makes them.
var coreCalls = []string{
	"NewValidatedSnapshot", "NewAliceFromSnapshot", "NewBobFromSnapshot",
	"Alice.BuildRound", "Bob.HandleRound", "Alice.AbsorbReply",
}

// replayLayers replays each captured sync through the public calls of
// internal/core, internal/estimator and internal/markov (through
// core.NewPlan), and probes internal/setstore, filling the per-layer
// metrics. The responder's snapshot is built and warmed outside the
// timing, as the server's cached view is; the initiator's partition is too
// when the workload syncs from a cached view. NewValidatedSnapshot itself
// only validates and wraps the slice, and is timed on every sync. full is
// the initiator's full set at setup, which the estimator layer sketches
// once.
func replayLayers(caps *captures, full []uint64, seed int64, rep *report) error {
	m := rep.layers
	if len(caps.list) == 0 {
		return fmt.Errorf("replay: no sync was captured")
	}
	cfg := core.Config{}
	ns := map[string]float64{}
	allocs := map[string]float64{}
	add := func(name string, n, a float64) {
		ns[name] += n
		allocs[name] += a
	}
	var encA, decA, encB, decB time.Duration
	var sketches, planNs, estNs float64

	tow, err := estimator.NewToW(estimator.DefaultSketches, 1)
	if err != nil {
		return err
	}
	start := time.Now()
	skFull := tow.Sketch(full)
	m["estimator.ToW.Sketch.ms"] = metric{float64(time.Since(start).Nanoseconds()) / 1e6, "ms"}

	var (
		srvKey  *uint64
		srvSnap *core.Snapshot
		srvSk   []int64
	)
	for i, cp := range caps.list {
		if srvKey != &cp.server[0] {
			srvKey = &cp.server[0]
			if srvSnap, err = core.NewValidatedSnapshot(cp.server, cfg); err != nil {
				return err
			}
			srvSk = tow.Sketch(cp.server)
		}
		n, _, err := timed(func() (err error) { _, err = tow.Estimate(skFull, srvSk); return err })
		if err != nil {
			return err
		}
		estNs += n

		var plan core.Plan
		n, _, err = timed(func() (err error) { plan, err = core.NewPlan(cp.estD, cfg); return err })
		if err != nil {
			return err
		}
		planNs += n
		if _, err := core.NewBobFromSnapshot(srvSnap, plan); err != nil { // warms the responder's partition
			return err
		}

		var snap *core.Snapshot
		n, a, err := timed(func() (err error) { snap, err = core.NewValidatedSnapshot(cp.client, cfg); return err })
		if err != nil {
			return err
		}
		add("NewValidatedSnapshot", n, a)
		if caps.warmClient { // warms the initiator's partition, as its cached view is
			if _, err := core.NewAliceFromSnapshot(snap, plan); err != nil {
				return err
			}
		}

		var alice *core.Alice
		var bob *core.Bob
		n, a, err = timed(func() (err error) { alice, err = core.NewAliceFromSnapshot(snap, plan); return err })
		if err != nil {
			return err
		}
		add("NewAliceFromSnapshot", n, a)
		n, a, err = timed(func() (err error) { bob, err = core.NewBobFromSnapshot(srvSnap, plan); return err })
		if err != nil {
			return err
		}
		add("NewBobFromSnapshot", n, a)

		for round := 0; round < plan.MaxRounds; round++ {
			var msg, reply []byte
			n, a, err := timed(func() (err error) { msg, err = alice.BuildRound(); return err })
			if err != nil {
				return err
			}
			add("Alice.BuildRound", n, a)
			if msg == nil {
				break
			}
			n, a, err = timed(func() (err error) { reply, err = bob.HandleRound(msg); return err })
			if err != nil {
				return err
			}
			add("Bob.HandleRound", n, a)
			n, a, err = timed(func() error { return alice.AbsorbReply(reply) })
			if err != nil {
				return err
			}
			add("Alice.AbsorbReply", n, a)
		}
		got := slices.Clone(alice.Difference())
		slices.Sort(got)
		if !alice.Done() || !slices.Equal(got, cp.expect) {
			rep.fail("replay %d did not reproduce the exact difference (%d elements, want %d)", i, len(got), len(cp.expect))
		}
		encA += alice.EncodeTime()
		decA += alice.DecodeTime()
		encB += bob.EncodeTime()
		decB += bob.DecodeTime()
		sketches += float64(alice.SketchesSent())
	}

	k := float64(len(caps.list))
	for _, c := range coreCalls {
		m["core."+c+".us_per_sync"] = metric{ns[c] / k / 1e3, "us"}
		m["core."+c+".allocs_per_sync"] = metric{allocs[c] / k, "count"}
	}
	m["core.sketches_per_sync"] = metric{sketches / k, "count"}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / k / 1e3 }
	m["bch.Alice.EncodeTime.us_per_sync"] = metric{us(encA), "us"}
	m["bch.Alice.DecodeTime.us_per_sync"] = metric{us(decA), "us"}
	m["bch.Bob.EncodeTime.us_per_sync"] = metric{us(encB), "us"}
	m["bch.Bob.DecodeTime.us_per_sync"] = metric{us(decB), "us"}
	m["estimator.ToW.Estimate.us_per_sync"] = metric{estNs / k / 1e3, "us"}
	m["markov.NewPlan.us_per_sync"] = metric{planNs / k / 1e3, "us"}
	rep.note("core replay: %d captured syncs", len(caps.list))

	return probeSetstore(seed, m)
}

// Shape of the setstore probe: the hosted workload's set size, on a
// store of its own.
const (
	probeSets = 32
	probeSize = hostedSize
)

// probeSetstore times setstore.Store's Load, AppendDelta and Meta
// directly, on a store shaped like the hosted workload's: 1000-element
// sets, one full segment each plus deltas, the default merge threshold.
func probeSetstore(seed int64, m map[string]metric) error {
	dir, err := os.MkdirTemp(scratchDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := setstore.Open(dir, pbs.DefaultMergeThreshold)
	if err != nil {
		return err
	}
	defer store.Close()
	tow, err := estimator.NewToW(estimator.DefaultSketches, 1)
	if err != nil {
		return err
	}
	metaFor := func(elems []uint64) setstore.Meta {
		mh := msethash.New(2)
		mh.AddSet(elems)
		return setstore.Meta{Count: uint64(len(elems)), SketchSeed: 1, Sketch: tow.Sketch(elems), Digest: mh.Sum().Bytes()}
	}
	var loadNs, appendNs, metaNs []int64
	for i := 0; i < probeSets; i++ {
		name := fmt.Sprintf("probe/s%03d", i)
		elems := workload.ManySet(seed, i, probeSize)
		slices.Sort(elems)
		if err := store.AppendFull(name, elems, metaFor(elems)); err != nil {
			return err
		}
		// One element out, one new one in: the shape of a hosted update.
		out, in := elems[0], elems[len(elems)-1]+1
		next := append(slices.Clone(elems[1:]), in)
		meta := metaFor(next)
		start := time.Now()
		if err := store.AppendDelta(name, []uint64{in}, []uint64{out}, meta); err != nil {
			return err
		}
		appendNs = append(appendNs, time.Since(start).Nanoseconds())
		start = time.Now()
		if _, err := store.Meta(name); err != nil {
			return err
		}
		metaNs = append(metaNs, time.Since(start).Nanoseconds())
		start = time.Now()
		got, _, err := store.Load(name)
		if err != nil {
			return err
		}
		loadNs = append(loadNs, time.Since(start).Nanoseconds())
		if len(got) != len(next) {
			return fmt.Errorf("setstore probe: loaded %d elements, want %d", len(got), len(next))
		}
	}
	m["pbs.hosting.setstore.Load.us"] = metric{quantile(loadNs, 0.5) / 1e3, "us"}
	m["pbs.hosting.setstore.AppendDelta.us"] = metric{quantile(appendNs, 0.5) / 1e3, "us"}
	m["pbs.hosting.setstore.Meta.us"] = metric{quantile(metaNs, 0.5) / 1e3, "us"}
	return nil
}
