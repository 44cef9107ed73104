package core

import (
	"bytes"
	"testing"

	"pbs/internal/workload"
)

// TestAliceFromSnapshotEquivalence drives the same exchange with a slice-built
// Alice and a snapshot-built Alice and requires byte-identical messages and
// identical results — the initiator-side counterpart of the Bob snapshot
// equivalence contract.
func TestAliceFromSnapshotEquivalence(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 5000, D: 120, Seed: 71})
	plan := planFor(t, 120, 72)

	ref, err := NewAlice(p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(p.A, Config{Seed: plan.Seed, SigBits: plan.SigBits})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewAliceFromSnapshot(snap, plan)
	if err != nil {
		t.Fatal(err)
	}
	bobRef, err := NewBob(p.B, plan)
	if err != nil {
		t.Fatal(err)
	}
	bobGot, err := NewBob(p.B, plan)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; !ref.Done() && round < DefaultMaxRounds; round++ {
		m1, err := ref.BuildRound()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := got.BuildRound()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("round %d: snapshot Alice message diverges (%d vs %d bytes)", round+1, len(m1), len(m2))
		}
		if m1 == nil {
			break
		}
		r1, err := bobRef.HandleRound(m1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := bobGot.HandleRound(m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r1, r2) {
			t.Fatalf("round %d: replies diverge", round+1)
		}
		if err := ref.AbsorbReply(r1); err != nil {
			t.Fatal(err)
		}
		if err := got.AbsorbReply(r2); err != nil {
			t.Fatal(err)
		}
	}
	if !ref.Done() || !got.Done() {
		t.Fatalf("done mismatch: ref=%v got=%v", ref.Done(), got.Done())
	}
	assertSameSet(t, got.Difference(), ref.Difference())
	assertSameSet(t, got.Difference(), p.Diff)
}

// TestAliceFromSnapshotValidation checks the plan/snapshot agreement guards.
func TestAliceFromSnapshotValidation(t *testing.T) {
	snap, err := NewSnapshot([]uint64{1, 2, 3}, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plan := planFor(t, 3, 9)
	plan.Seed = 10
	if _, err := NewAliceFromSnapshot(snap, plan); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	plan = planFor(t, 3, 9)
	plan.SigBits = 16
	if _, err := NewAliceFromSnapshot(snap, plan); err == nil {
		t.Fatal("sigBits mismatch accepted")
	}
}

func TestSnapshotContains(t *testing.T) {
	elems := []uint64{5, 9, 1 << 20}
	for _, mk := range []func() (*Snapshot, error){
		func() (*Snapshot, error) { return NewSnapshot(elems, Config{}) },
		func() (*Snapshot, error) {
			// Unsorted: membership falls back to a sorted partition.
			return NewValidatedSnapshot([]uint64{1 << 20, 5, 9}, Config{})
		},
	} {
		snap, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range elems {
			if !snap.Contains(x) {
				t.Fatalf("Contains(%d) = false", x)
			}
		}
		if snap.Contains(6) || snap.Contains(0) {
			t.Fatal("Contains accepted absent elements")
		}
	}
}

// TestOnVerifiedDeltaStreams forces a multi-round session (KnownD badly
// underestimated, so overloaded groups split) and checks the streaming
// contract: batches arrive with ascending round numbers, a nonempty batch
// lands before the final round, batches are sorted and disjoint, and their
// union is exactly the final difference.
func TestOnVerifiedDeltaStreams(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 8000, D: 200, Seed: 33})
	plan := planFor(t, 20, 34) // 10x underestimate → splits → several rounds

	alice, err := NewAlice(p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	var (
		batches [][]uint64
		rounds  []int
		all     []uint64
	)
	alice.OnVerifiedDelta(func(elems []uint64, round int) {
		if len(elems) == 0 {
			t.Error("empty delta batch delivered")
		}
		for i := 1; i < len(elems); i++ {
			if elems[i-1] >= elems[i] {
				t.Errorf("round %d: batch not sorted/deduped at %d", round, i)
			}
		}
		batches = append(batches, append([]uint64(nil), elems...))
		rounds = append(rounds, round)
		all = append(all, elems...)
	})
	bob, err := NewBob(p.B, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(alice, bob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("session did not complete")
	}
	if res.Stats.Rounds < 2 {
		t.Fatalf("fixture converged in %d round(s); splits not exercised", res.Stats.Rounds)
	}
	if len(batches) == 0 {
		t.Fatal("no delta batches delivered")
	}
	if rounds[0] >= res.Stats.Rounds {
		t.Fatalf("first batch arrived in round %d of %d — nothing was streamed early", rounds[0], res.Stats.Rounds)
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i] <= rounds[i-1] {
			t.Fatalf("rounds not ascending: %v", rounds)
		}
	}
	seen := make(map[uint64]struct{}, len(all))
	for _, x := range all {
		if _, dup := seen[x]; dup {
			t.Fatalf("element %#x delivered twice", x)
		}
		seen[x] = struct{}{}
	}
	assertSameSet(t, all, res.Difference)
	assertSameSet(t, all, p.Diff)
}

// TestOnVerifiedDeltaSingleRound: in the common case everything verifies in
// round 1 and the whole difference arrives in one batch.
func TestOnVerifiedDeltaSingleRound(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 40, Seed: 35})
	plan := planFor(t, 40, 36)
	alice, err := NewAlice(p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	var all []uint64
	calls := 0
	alice.OnVerifiedDelta(func(elems []uint64, round int) {
		calls++
		all = append(all, elems...)
	})
	bob, err := NewBob(p.B, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(alice, bob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	assertSameSet(t, all, p.Diff)
	if calls > res.Stats.Rounds {
		t.Fatalf("%d delta calls for %d rounds", calls, res.Stats.Rounds)
	}
}
