package core

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// trackedSet is a set mutated through a Delta, mirrored in a plain map so
// the test can rebuild it from scratch.
type trackedSet struct {
	d   *Delta
	cur map[uint64]struct{}
}

func newTrackedSet(t *testing.T, base []uint64, cfg Config) *trackedSet {
	t.Helper()
	snap, err := NewSnapshot(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := &trackedSet{d: NewDelta(snap), cur: make(map[uint64]struct{})}
	for _, x := range base {
		ts.cur[x] = struct{}{}
	}
	return ts
}

// toggle adds x if absent and removes it if present.
func (ts *trackedSet) toggle(x uint64) {
	if _, in := ts.cur[x]; in {
		delete(ts.cur, x)
		ts.d.Remove(x)
		return
	}
	ts.cur[x] = struct{}{}
	ts.d.Add(x)
}

// rebuilt is the tracked set's current contents as a fresh snapshot.
func (ts *trackedSet) rebuilt(t *testing.T, cfg Config) *Snapshot {
	t.Helper()
	snap, err := NewSnapshot(slices.Collect(maps.Keys(ts.cur)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// lockstep drives two sessions round by round and fails on the first
// byte of divergence in either direction.
func lockstep(t *testing.T, a1 *Alice, b1 *Bob, a2 *Alice, b2 *Bob) {
	t.Helper()
	for round := 1; round <= DefaultMaxRounds && !a1.Done(); round++ {
		m1, err := a1.BuildRound()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := a2.BuildRound()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("round %d: Alice messages diverge", round)
		}
		if m1 == nil {
			break
		}
		r1, err := b1.HandleRound(m1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := b2.HandleRound(m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r1, r2) {
			t.Fatalf("round %d: Bob replies diverge", round)
		}
		if err := a1.AbsorbReply(r1); err != nil {
			t.Fatal(err)
		}
		if err := a2.AbsorbReply(r2); err != nil {
			t.Fatal(err)
		}
	}
	if !a1.Done() || !a2.Done() {
		t.Fatal("sessions did not complete")
	}
	if !slices.Equal(sortedU64(a1.Difference()), sortedU64(a2.Difference())) {
		t.Fatal("learned differences diverge")
	}
}

// TestDerivedSnapshotMatchesRebuilt is the differential test of the
// base-plus-delta representation: two sets share a random base and a
// random stream of Add/Remove calls (re-adds, toggles that cancel, and
// enough churn to cross the compaction threshold), then each takes a few
// private changes. At every checkpoint, sessions between the Delta-derived
// snapshots must be byte-identical, round by round and in both directions,
// to sessions between NewSnapshot rebuilds of the same contents — across
// plans that fit and miss the round-1 fold cache, underestimated plans
// that split, adaptive re-planning, and parallel workers.
func TestDerivedSnapshotMatchesRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		cfg := Config{Seed: rng.Uint64(), SigBits: 24}
		size := 500 + rng.Intn(3000)
		pool := make([]uint64, 0, 2*size)
		seen := map[uint64]bool{}
		for len(pool) < 2*size {
			if x := uint64(1 + rng.Intn(1<<24-1)); !seen[x] {
				seen[x] = true
				pool = append(pool, x)
			}
		}
		base := pool[:size]
		a := newTrackedSet(t, base, cfg)
		b := newTrackedSet(t, base, cfg)
		threshold := size/compactDiv + compactSlack
		for checkpoint := 0; checkpoint < 3; checkpoint++ {
			// Shared churn: enough toggles on a small hot range that some
			// cancel and the net delta may cross the compaction threshold.
			hot := pool[:threshold+rng.Intn(3*threshold)]
			for i := rng.Intn(2 * threshold); i > 0; i-- {
				x := hot[rng.Intn(len(hot))]
				a.toggle(x)
				b.toggle(x)
			}
			// Private changes make the difference.
			diff := 1 + rng.Intn(200)
			for i := 0; i < diff; i++ {
				x := pool[rng.Intn(len(pool))]
				if rng.Intn(2) == 0 {
					a.toggle(x)
				} else {
					b.toggle(x)
				}
			}
			sa, sb := a.d.Snapshot(), b.d.Snapshot()
			ra, rb := a.rebuilt(t, cfg), b.rebuilt(t, cfg)
			if sa.Len() != ra.Len() || !slices.Equal(sortedU64(sa.Elements()), ra.Elements()) {
				t.Fatalf("trial %d: derived snapshot holds %d elements, rebuilt %d", trial, sa.Len(), ra.Len())
			}
			for _, x := range pool[:64] {
				if sa.Contains(x) != ra.Contains(x) {
					t.Fatalf("trial %d: Contains(%d) disagrees", trial, x)
				}
			}
			trueD := 0
			for x := range a.cur {
				if _, in := b.cur[x]; !in {
					trueD++
				}
			}
			for x := range b.cur {
				if _, in := a.cur[x]; !in {
					trueD++
				}
			}
			for _, est := range []int{trueD/5 + 1, trueD + 3, 2 * trueD} {
				plan, err := NewPlan(est, cfg)
				if err != nil {
					t.Fatal(err)
				}
				plan.Parallelism = 1 + rng.Intn(3)
				a1, err := NewAliceFromSnapshot(sa, plan)
				if err != nil {
					t.Fatal(err)
				}
				b1, err := NewBobFromSnapshot(sb, plan)
				if err != nil {
					t.Fatal(err)
				}
				a2, err := NewAliceFromSnapshot(ra, plan)
				if err != nil {
					t.Fatal(err)
				}
				b2, err := NewBobFromSnapshot(rb, plan)
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					for _, ep := range []interface{ EnableAdaptive() }{a1, b1, a2, b2} {
						ep.EnableAdaptive()
					}
				}
				lockstep(t, a1, b1, a2, b2)
			}
		}
	}
}

// TestDeltaCompacts: once the net changes outgrow the threshold, Snapshot
// folds them into a fresh base and starts the next delta empty; changes
// that cancel never count toward it.
func TestDeltaCompacts(t *testing.T) {
	base := make([]uint64, 3200)
	for i := range base {
		base[i] = uint64(2*i + 2)
	}
	snap, err := NewValidatedSnapshot(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta(snap)
	threshold := len(base)/compactDiv + compactSlack
	for i := 0; i < 10*threshold; i++ {
		d.Add(1)
		d.Remove(1)
	}
	if got := d.Snapshot(); got != snap {
		t.Fatal("cancelled changes produced a new snapshot")
	}
	for i := 0; i < threshold; i++ {
		d.Remove(base[i])
	}
	if got := d.Snapshot(); got.b != snap.b || len(got.delta) != threshold || got.Len() != len(base)-threshold {
		t.Fatalf("below the threshold: want a derived snapshot over the same base")
	}
	d.Add(1)
	got := d.Snapshot()
	if got.b == snap.b || len(got.delta) != 0 || got.Len() != len(base)-threshold+1 {
		t.Fatalf("past the threshold: want a compacted snapshot")
	}
	if !slices.IsSorted(got.Elements()) || got.Elements()[0] != 1 {
		t.Fatal("compacting a sorted base must keep it sorted")
	}
	if d.Snapshot() != got {
		t.Fatal("the compacted snapshot must become the new base")
	}
	if !slices.Equal(base, func() []uint64 {
		want := make([]uint64, len(base))
		for i := range want {
			want[i] = uint64(2*i + 2)
		}
		return want
	}()) {
		t.Fatal("compaction reordered or modified the caller's slice")
	}
}
