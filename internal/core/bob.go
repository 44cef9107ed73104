package core

import (
	"fmt"
	"time"

	"pbs/internal/bch"
	"pbs/internal/wire"
)

// Bob is the responding endpoint. Each round he decodes Alice's BCH
// codewords against his local parity bitmaps to locate the differing bit
// positions (Line 2 of Procedure 2) and replies with those positions, the
// XOR sums of his corresponding subsets, and his per-scope checksums
// (Line 3).
type Bob struct {
	plan    Plan
	sd      seeds
	sigMask uint64

	// base and part are the snapshot base and its partition under the
	// plan, kept for the round-1 fold cache. roots holds each group's
	// share of the snapshot and rootSums its checksum; both are stable
	// across rounds because the group hash never changes.
	base     *snapBase
	part     *partition
	roots    []scopeSet
	rootSums []uint64
	// scopeSets caches the shares of split scopes.
	scopeSets map[scopeID]scopeSet
	// checksums caches c(B_s) per split scope.
	checksums map[scopeID]uint64

	payloadBits   int
	positionsSent int
	checksumsSent int

	encodeTime time.Duration // building bitmaps, XOR sums, and sketches
	decodeTime time.Duration // BCH decoding

	// Reusable hot-path scratch: in steady state HandleRound performs no
	// per-scope allocations. scratch is per-worker (bin-fold buffers, the
	// parity sketch, and the BCH decode workspace); jobSketches are the
	// reused parse targets for Alice's codewords; posBufs/xorBufs hold
	// each scope index's reply until serialization.
	scratch     []bobScratch
	jobSketches []*bch.Sketch
	posBufs     [][]uint64
	xorBufs     [][]uint64
	jobs        []bobScopeJob
	replies     []bobScopeReply

	// Adaptive per-round re-planning (negotiated; see EnableAdaptive):
	// rounds >= 2 carry their own (m, t) in the round header. curM/curT are
	// the parameters the scratch buffers are currently shaped for.
	adaptive bool
	curM     uint
	curT     int
	replans  int
}

// EnableAdaptive tells Bob to expect adaptive round headers: every round
// message with round number >= 2 carries its own (m, t) ahead of the scope
// count. Must match the peer Alice's EnableAdaptive.
func (b *Bob) EnableAdaptive() { b.adaptive = true }

// Replans returns how many rounds Bob served whose adaptive header chose
// parameters different from the static plan.
func (b *Bob) Replans() int { return b.replans }

// EncodeTime returns the cumulative time Bob spent encoding (hash
// partitioning, parity bitmaps, XOR sums, BCH sketches).
func (b *Bob) EncodeTime() time.Duration { return b.encodeTime }

// DecodeTime returns the cumulative time Bob spent in BCH decoding.
func (b *Bob) DecodeTime() time.Duration { return b.decodeTime }

// NewBob creates the Bob endpoint for the given set under plan. It is the
// single-session path over the same machinery a server shares: a private
// Snapshot validated and partitioned for this one plan.
func NewBob(set []uint64, plan Plan) (*Bob, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	snap, err := NewSnapshot(set, Config{SigBits: plan.SigBits, Seed: plan.Seed})
	if err != nil {
		return nil, err
	}
	return NewBobFromSnapshot(snap, plan)
}

// PayloadBits returns the cumulative protocol-payload bits Bob has sent
// (positions, XOR sums, checksums), excluding message framing.
func (b *Bob) PayloadBits() int { return b.payloadBits }

// PositionsSent returns how many (position, XOR sum) pairs Bob has sent.
func (b *Bob) PositionsSent() int { return b.positionsSent }

// ChecksumsSent returns how many per-scope checksums Bob has sent.
func (b *Bob) ChecksumsSent() int { return b.checksumsSent }

// scopeSet returns Bob's share of the given scope, computing and caching
// split-scope shares on demand.
func (b *Bob) scopeSet(id scopeID) scopeSet {
	if id.path == "" {
		return b.roots[id.group]
	}
	if s, ok := b.scopeSets[id]; ok {
		return s
	}
	parent := makeScopeID(id.group, id.path[:len(id.path)-1])
	// Partition the parent into all children at once so sibling lookups hit
	// the cache.
	kids, baseSums := b.scopeSet(parent).split(b.sd, parent)
	for i, set := range kids {
		child := parent.child(i)
		b.scopeSets[child] = set
		b.checksums[child] = set.checksum(baseSums[i], b.sigMask)
	}
	return b.scopeSets[id]
}

// checksum returns c(B_s) for the scope.
func (b *Bob) checksum(id scopeID) uint64 {
	if id.path == "" {
		return b.rootSums[id.group]
	}
	return b.checksums[id]
}

// bobScopeJob is one scope's decoded request: everything the parallel
// phase needs, resolved off the sequential bit stream (and the lazily
// partitioned scope-set cache) up front.
type bobScopeJob struct {
	id    scopeID
	alice *bch.Sketch
	set   scopeSet
	seed  uint64
}

// bobScopeReply is one scope's computed answer, held until the sequential
// serialization phase writes it in scope order.
type bobScopeReply struct {
	ok        bool     // BCH decoding succeeded
	positions []uint64 // differing bitmap positions
	xors      []uint64 // Bob's per-bin XOR sums at those positions
}

// bobScratch is per-worker state, long-lived across rounds: the bin-fold
// buffers (cleared per scope instead of reallocated, which matters at
// large g), the reusable parity sketch, the BCH decode workspace, and the
// worker's accumulated encode/decode time, folded into the Bob totals
// (and zeroed) after each parallel phase joins.
type bobScratch struct {
	sums   []uint64
	parity []bool
	sketch *bch.Sketch
	dec    *bch.Decoder
	encDur time.Duration
	decDur time.Duration
}

// HandleRound processes one round message from Alice and returns the reply.
// Scope requests are parsed sequentially, the per-scope bin folding, BCH
// sketching, and decoding fan out across the plan's worker pool, and the
// reply is serialized in scope order — so the reply bytes are identical
// for every Parallelism setting.
func (b *Bob) HandleRound(msg []byte) ([]byte, error) {
	r := wire.NewReader(msg)
	round, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("core: bad round header: %w", err)
	}
	m, t := b.plan.M, b.plan.T
	if b.adaptive && round >= 2 {
		mv, err := r.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("core: bad adaptive round header: %w", err)
		}
		tv, err := r.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("core: bad adaptive round header: %w", err)
		}
		// Bound what a peer can make this side allocate: the per-worker
		// bin-sum and parity buffers are (n+1)-sized and BCH decoding is
		// superlinear in t.
		if mv < 2 || mv > maxAdaptiveM {
			return nil, fmt.Errorf("core: adaptive bitmap degree m=%d out of range", mv)
		}
		an := (uint64(1) << mv) - 1
		if tv < 1 || tv > an/2 || tv > maxAdaptiveT {
			return nil, fmt.Errorf("core: adaptive capacity t=%d invalid for n=%d", tv, an)
		}
		m, t = uint(mv), int(tv)
		if m != b.plan.M || t != b.plan.T {
			b.replans++
		}
	}
	if m != b.curM || t != b.curT {
		// New round shape: the sketch scratch (sized per codeword) is stale.
		b.jobSketches = b.jobSketches[:0]
		for i := range b.scratch {
			b.scratch[i].sketch = nil
		}
		b.curM, b.curT = m, t
	}
	nScopes, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("core: bad round header: %w", err)
	}
	// Plausibility cap: splits can multiply scopes well beyond the group
	// count when capacity was badly underestimated, so allow generous
	// headroom while still rejecting absurd messages.
	if nScopes > uint64(b.plan.Groups)*64+(1<<16) {
		return nil, fmt.Errorf("core: implausible scope count %d", nScopes)
	}
	n := (uint64(1) << b.curM) - 1
	// A round-1 root scope starts from the snapshot's cached base fold,
	// when it keeps one; a hostile round-1 message naming split scopes
	// simply folds them directly.
	var fold *roundFold
	if round == 1 {
		fold = b.base.roundOneFold(b.part, b.curM, b.plan.workers())
	}
	// Grow jobs as scopes parse successfully rather than pre-allocating by
	// the peer-claimed count: a tiny frame claiming the plausibility cap
	// must not force a multi-megabyte allocation before validation.
	jobs := b.jobs[:0]
	for s := uint64(0); s < nScopes; s++ {
		id, err := readScopeID(r)
		if err != nil {
			return nil, fmt.Errorf("core: bad scope descriptor: %w", err)
		}
		if id.group < 0 || id.group >= b.plan.Groups {
			return nil, fmt.Errorf("core: scope group %d out of range", id.group)
		}
		// Parse Alice's codeword into a long-lived per-index sketch instead
		// of allocating one per scope per round.
		if int(s) >= len(b.jobSketches) {
			b.jobSketches = append(b.jobSketches, bch.MustNew(b.curM, b.curT))
		}
		aliceSketch := b.jobSketches[s]
		if err := aliceSketch.ReadInto(r); err != nil {
			return nil, fmt.Errorf("core: bad sketch: %w", err)
		}
		// scopeSet mutates the split cache, so it must stay in this
		// sequential pass; the parallel phase then only reads the slices.
		jobs = append(jobs, bobScopeJob{
			id:    id,
			alice: aliceSketch,
			set:   b.scopeSet(id),
			seed:  b.sd.binSeed(id, int(round)),
		})
	}
	b.jobs = jobs

	workers := b.plan.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	for len(b.scratch) < workers {
		b.scratch = append(b.scratch, bobScratch{})
	}
	for len(b.posBufs) < len(jobs) {
		b.posBufs = append(b.posBufs, nil)
		b.xorBufs = append(b.xorBufs, nil)
	}
	if cap(b.replies) < len(jobs) {
		b.replies = make([]bobScopeReply, len(jobs))
	}
	replies := b.replies[:len(jobs)]
	forEachScope(workers, len(jobs), func(worker, i int) {
		replies[i] = bobScopeReply{}
		sc := &b.scratch[worker]
		if uint64(len(sc.sums)) != n+1 {
			sc.sums = make([]uint64, n+1)
			sc.parity = make([]bool, n+1)
		} else {
			clear(sc.sums)
			clear(sc.parity)
		}
		if sc.sketch == nil {
			sc.sketch = bch.MustNew(b.curM, b.curT)
			if sc.dec == nil {
				sc.dec = bch.NewDecoder()
			}
		}
		job := &jobs[i]
		encStart := time.Now()
		sketch := sc.sketch
		sketch.Reset()
		if fold != nil && job.id.path == "" {
			lo := job.id.group * int(n+1)
			copy(sc.sums, fold.sums[lo:lo+int(n+1)])
			copy(sc.parity, fold.parity[lo:lo+int(n+1)])
		} else {
			foldInto(job.set.base, job.seed, n, sc.sums, sc.parity)
		}
		foldInto(job.set.delta, job.seed, n, sc.sums, sc.parity)
		for j := uint64(1); j <= n; j++ {
			if sc.parity[j] {
				sketch.Add(j)
			}
		}
		// The shapes match by construction (same plan), so Xor cannot fail.
		sketch.Xor(job.alice)
		sc.encDur += time.Since(encStart)
		decStart := time.Now()
		positions, derr := sketch.DecodeInto(sc.dec, b.posBufs[i][:0])
		b.posBufs[i] = positions
		sc.decDur += time.Since(decStart)
		if derr != nil {
			// BCH decoding failure (§3.2): report it; Alice will split.
			return
		}
		xors := b.xorBufs[i][:0]
		for _, p := range positions {
			xors = append(xors, sc.sums[p])
		}
		b.xorBufs[i] = xors
		replies[i] = bobScopeReply{ok: true, positions: positions, xors: xors}
	})
	for i := range b.scratch {
		b.encodeTime += b.scratch[i].encDur
		b.decodeTime += b.scratch[i].decDur
		b.scratch[i].encDur = 0
		b.scratch[i].decDur = 0
	}

	out := wire.NewWriter()
	for i := range jobs {
		rep := &replies[i]
		if !rep.ok {
			out.WriteBool(false)
			continue
		}
		out.WriteBool(true)
		out.WriteUvarint(uint64(len(rep.positions)))
		for _, p := range rep.positions {
			out.WriteBits(p, b.curM)
		}
		for _, x := range rep.xors {
			out.WriteBits(x, b.plan.SigBits)
		}
		out.WriteBits(b.checksum(jobs[i].id), b.plan.SigBits)
		b.payloadBits += len(rep.positions)*int(b.curM) +
			len(rep.positions)*int(b.plan.SigBits) + int(b.plan.SigBits)
		b.positionsSent += len(rep.positions)
		b.checksumsSent++
	}
	return out.Bytes(), nil
}
