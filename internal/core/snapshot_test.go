package core

import (
	"bytes"
	"sync"
	"testing"

	"pbs/internal/markov"
	"pbs/internal/workload"
)

// TestSnapshotBobEquivalence: a Bob built from a shared snapshot must emit
// byte-identical replies to one built privately with NewBob, across a full
// multi-round session.
func TestSnapshotBobEquivalence(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 4000, D: 120, Seed: 7})
	plan, err := NewPlan(150, Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(p.B, Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}

	alice1, err := NewAlice(p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	alice2, err := NewAlice(p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	bobPriv, err := NewBob(p.B, plan)
	if err != nil {
		t.Fatal(err)
	}
	bobShared, err := NewBobFromSnapshot(snap, plan)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < DefaultMaxRounds && !alice1.Done(); round++ {
		m1, err := alice1.BuildRound()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := alice2.BuildRound()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("round %d: alice messages diverge", round)
		}
		if m1 == nil {
			break
		}
		r1, err := bobPriv.HandleRound(m1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := bobShared.HandleRound(m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r1, r2) {
			t.Fatalf("round %d: snapshot Bob reply diverges from private Bob", round)
		}
		if err := alice1.AbsorbReply(r1); err != nil {
			t.Fatal(err)
		}
		if err := alice2.AbsorbReply(r2); err != nil {
			t.Fatal(err)
		}
	}
	if !alice1.Done() {
		t.Fatal("session did not complete")
	}
}

// TestSnapshotConcurrentBobs: many Bobs sharing one snapshot (and hence one
// partition per group count) must reconcile concurrently without races and
// still produce correct differences. Run with -race.
func TestSnapshotConcurrentBobs(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 60, Seed: 11})
	snap, err := NewSnapshot(p.B, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 16
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		// Vary d so sessions exercise distinct and shared partition sizes.
		d := 50 + 25*(i%3)
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			plan, err := NewPlan(d, Config{Seed: 42})
			if err != nil {
				errs <- err
				return
			}
			alice, err := NewAlice(p.A, plan)
			if err != nil {
				errs <- err
				return
			}
			bob, err := NewBobFromSnapshot(snap, plan)
			if err != nil {
				errs <- err
				return
			}
			res, err := Drive(alice, bob, 0)
			if err != nil {
				errs <- err
				return
			}
			if !res.Complete || len(res.Difference) != len(p.Diff) {
				errs <- errTest{"incomplete or wrong-size difference"}
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errTest struct{ s string }

func (e errTest) Error() string { return e.s }

func TestSnapshotRejectsBadElements(t *testing.T) {
	if _, err := NewSnapshot([]uint64{1, 0, 2}, Config{}); err == nil {
		t.Fatal("snapshot accepted a zero element")
	}
	if _, err := NewSnapshot([]uint64{1, 2, 1}, Config{}); err == nil {
		t.Fatal("snapshot accepted a duplicate element")
	}
	if _, err := NewSnapshot([]uint64{1 << 40}, Config{SigBits: 32}); err == nil {
		t.Fatal("snapshot accepted an out-of-universe element")
	}
}

func TestSnapshotPlanMismatchRejected(t *testing.T) {
	snap, err := NewSnapshot([]uint64{1, 2, 3}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	planWrongSeed, err := NewPlan(10, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBobFromSnapshot(snap, planWrongSeed); err == nil {
		t.Fatal("snapshot Bob accepted a plan with a different seed")
	}
	planWrongSig, err := NewPlan(10, Config{Seed: 1, SigBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBobFromSnapshot(snap, planWrongSig); err == nil {
		t.Fatal("snapshot Bob accepted a plan with a different signature width")
	}
}

// TestNewPlanResolvesMaxRounds: the <= 0 → DefaultMaxRounds fallback now
// lives in NewPlan, so every derived plan carries an explicit cap.
func TestNewPlanResolvesMaxRounds(t *testing.T) {
	p, err := NewPlan(100, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxRounds != DefaultMaxRounds {
		t.Fatalf("MaxRounds = %d, want DefaultMaxRounds (%d)", p.MaxRounds, DefaultMaxRounds)
	}
	p, err = NewPlan(100, Config{MaxRounds: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxRounds != 7 {
		t.Fatalf("MaxRounds = %d, want 7", p.MaxRounds)
	}
}

// TestNewPlanMemoized: plans served from the optimizer memo equal fresh
// optimizer runs, concurrent callers share it safely, and forged-estimate
// churn cannot grow it past its bound.
func TestNewPlanMemoized(t *testing.T) {
	cfg := Config{Seed: 3}.withDefaults()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := 1 + w; d <= maxMemoPlans+64; d += 4 {
				if _, err := NewPlan(d, cfg); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	planMemo.Lock()
	size := len(planMemo.m)
	planMemo.Unlock()
	if size > maxMemoPlans {
		t.Fatalf("plan memo holds %d entries, bound %d", size, maxMemoPlans)
	}
	for _, d := range []int{1, 7, 150, 5000} {
		want, err := markov.Optimize(d, cfg.Delta, cfg.TargetRounds, cfg.TargetSuccess)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			plan, err := NewPlan(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plan.M != want.M || plan.T != want.T || plan.Groups != markov.NumGroups(d, cfg.Delta) {
				t.Fatalf("d=%d: plan (m=%d, t=%d, g=%d), optimizer says (m=%d, t=%d)", d, plan.M, plan.T, plan.Groups, want.M, want.T)
			}
		}
	}
}
