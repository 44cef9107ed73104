package core

import (
	"fmt"
	"slices"
	"time"

	"pbs/internal/bch"
	"pbs/internal/hashutil"
	"pbs/internal/markov"
	"pbs/internal/wire"
)

// Alice is the endpoint that learns the set difference. She initiates every
// round by sending BCH codewords of her parity bitmaps (Line 1 of
// Procedure 2) and finishes it by recovering distinct elements from Bob's
// reply and verifying checksums (Lines 4–5).
type Alice struct {
	plan    Plan
	sd      seeds
	sigMask uint64

	// base and part are the snapshot base and its partition under the
	// plan, kept for the round-1 fold cache.
	base *snapBase
	part *partition

	active []*aliceScope
	round  int

	// diff accumulates D̂1 △ D̂2 △ ... — the learned difference.
	diff map[uint64]struct{}

	// onDelta, when set, is invoked at the end of each AbsorbReply with the
	// elements of every scope that passed checksum verification in that
	// round — the piecewise-reconciliability property (§3) surfaced as an
	// event stream: group pairs deliver their differences as they verify,
	// not when the whole session completes.
	onDelta func(elems []uint64, round int)

	payloadBits  int
	sketchesSent int
	awaiting     bool // a round message was built and its reply is pending

	// Adaptive per-round re-planning (negotiated; see EnableAdaptive).
	// curM/curT are the parameters of the round currently in flight; they
	// start at the plan's values and, from round 2 on, are re-chosen per
	// round from the Markov occupancy model. skM/skT track the shape the
	// sketch scratch was built for.
	adaptive bool
	curM     uint
	curT     int
	skM      uint
	skT      int
	replans  int

	encodeTime time.Duration // time spent building bitmaps and codewords
	decodeTime time.Duration // time spent recovering and verifying elements

	// Reusable hot-path scratch: steady-state rounds reuse these instead
	// of allocating. sketches holds one codeword sketch per active-scope
	// index, reset each round; parity is per-worker bitmap scratch;
	// sumsPool is a free list for the per-scope bin XOR-sum buffers that
	// live on scopes between BuildRound and AbsorbReply; durs is the
	// per-worker timing scratch.
	sketches []*bch.Sketch
	parity   [][]bool
	sumsPool [][]uint64
	durs     []time.Duration
	parsed   []aliceParsedScope
	outcomes []aliceScopeOutcome
}

// getSums pops a zeroed bin-sum buffer (1-based, n+1 slots) off the free
// list, or allocates one. Wrong-sized buffers (left over from a round with
// a different adaptive bitmap size) are discarded.
func (a *Alice) getSums(n uint64) []uint64 {
	for len(a.sumsPool) > 0 {
		s := a.sumsPool[len(a.sumsPool)-1]
		a.sumsPool = a.sumsPool[:len(a.sumsPool)-1]
		if uint64(len(s)) == n+1 {
			clear(s)
			return s
		}
	}
	return make([]uint64, n+1)
}

// putSums returns a buffer to the free list.
func (a *Alice) putSums(s []uint64) {
	if s != nil {
		a.sumsPool = append(a.sumsPool, s)
	}
}

// EncodeTime returns the cumulative time Alice spent encoding (hash
// partitioning, parity bitmaps, BCH codewords). Parallel-phase work is
// summed across workers, so under Parallelism > 1 this tracks CPU time,
// not wall time — the same convention as Bob.
func (a *Alice) EncodeTime() time.Duration { return a.encodeTime }

// DecodeTime returns the cumulative time Alice spent recovering distinct
// elements and verifying checksums, summed across workers like EncodeTime.
func (a *Alice) DecodeTime() time.Duration { return a.decodeTime }

// aliceScope is Alice's per-scope state: the working set W (initially her
// group subset, thereafter W △ D̂ after every round, §2.4) plus incremental
// checksums. W is never materialized: it is the scope's share of the
// snapshot (base △ delta) XOR the toggles learned so far this session.
type aliceScope struct {
	id       scopeID
	set      scopeSet
	checksum uint64 // c(W), maintained incrementally

	// learned holds the scope's net toggles this session — elements
	// toggled an odd number of times, all in the scope's sub-universe
	// (acceptRecovered enforces the group and split path). When the scope
	// verifies, learned is exactly the scope's share of A△B, emitted as
	// that round's delta batch when onDelta is set. Split children inherit
	// it partitioned by child hash. nil until the first toggle.
	learned map[uint64]struct{}

	bobChecksum     uint64
	haveBobChecksum bool

	// Round-scoped scratch, saved between BuildRound and AbsorbReply.
	binSums []uint64
	binSeed uint64

	// loadHint is the adaptive re-planner's upper estimate of how many
	// unreconciled distinct elements this scope still holds, set when the
	// scope survives a round with its checksum unverified; splitFresh
	// marks a just-created split child, whose load is unknown — it forces
	// the next round back onto the static plan (see replanRound).
	loadHint   int
	splitFresh bool
}

// contains reports whether x is in the scope's working set W.
func (sc *aliceScope) contains(x uint64) bool {
	_, toggled := sc.learned[x]
	return sc.set.contains(x) != toggled
}

// NewAlice creates the Alice endpoint for the given set under plan: a
// private Snapshot validated and partitioned for this one plan, the same
// path NewBob takes. Elements must be nonzero, distinct, and fit in
// plan.SigBits bits.
func NewAlice(set []uint64, plan Plan) (*Alice, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	snap, err := NewSnapshot(set, Config{SigBits: plan.SigBits, Seed: plan.Seed})
	if err != nil {
		return nil, err
	}
	return NewAliceFromSnapshot(snap, plan)
}

// NewAliceFromSnapshot creates an Alice endpoint over a pre-validated
// shared Snapshot, skipping the per-session O(|S|) validation pass and
// reusing the snapshot's cached group partition for plan.Groups — the same
// amortization NewBobFromSnapshot gives the responder, now available to the
// side that learns the difference. Her working sets start as views of the
// snapshot's groups; nothing is copied. See checkPlan for which plan fields
// must match the snapshot.
func NewAliceFromSnapshot(snap *Snapshot, plan Plan) (*Alice, error) {
	if err := snap.checkPlan(plan); err != nil {
		return nil, err
	}
	part, sets, sums := snap.rootScopes(plan)
	scopes := make([]*aliceScope, plan.Groups)
	backing := make([]aliceScope, plan.Groups)
	for g := range scopes {
		backing[g] = aliceScope{id: newScopeID(g), set: sets[g], checksum: sums[g]}
		scopes[g] = &backing[g]
	}
	return &Alice{
		plan:    plan,
		sd:      snap.b.sd,
		sigMask: sigMask(plan.SigBits),
		base:    snap.b,
		part:    part,
		active:  scopes,
		diff:    make(map[uint64]struct{}),
		curM:    plan.M,
		curT:    plan.T,
		skM:     plan.M,
		skT:     plan.T,
	}, nil
}

// OnVerifiedDelta registers fn to receive each round's newly verified
// difference elements (see the onDelta field). It must be called before the
// first BuildRound; elements toggled before the handler is installed would
// not be tracked. fn is invoked from AbsorbReply's sequential merge phase —
// never concurrently — with a batch it may retain; batches are sorted, and
// rounds that verify no new elements produce no call.
func (a *Alice) OnVerifiedDelta(fn func(elems []uint64, round int)) {
	if a.round > 0 {
		panic("core: OnVerifiedDelta installed mid-session")
	}
	a.onDelta = fn
}

func sigMask(bits uint) uint64 {
	if bits == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << bits) - 1
}

// EnableAdaptive switches the session to adaptive per-round re-planning:
// from round 2 on, BuildRound re-chooses the bitmap degree and BCH
// capacity for each round from the Markov occupancy model (markov.Replan)
// using the surviving scopes' load estimates, and prefixes the round
// message with the chosen (m, t). Both endpoints must agree — the peer Bob
// must have EnableAdaptive called too — and it must be enabled before the
// second round is built. Round 1 always uses the static plan, so the
// fast-sync speculative round (built before the peer's capabilities are
// known) is unaffected.
func (a *Alice) EnableAdaptive() { a.adaptive = true }

// Replans returns how many rounds were adaptively re-planned away from
// the static plan's parameters.
func (a *Alice) Replans() int { return a.replans }

// survivorLoad is the load estimate for a scope whose BCH decoding
// succeeded but whose checksum did not verify: the stragglers are the
// elements that shared bins (type (I) exceptions, §2.3), overwhelmingly a
// collision pair or two plus margin for a rare fake-element pass.
const survivorLoad = 4

// replanRound re-chooses (curM, curT) for the round about to be built.
//
// Rounds containing fresh split children replay the static plan: a split
// means the plan's capacity was just overrun, so the load estimates are
// unreliable in exactly the way that matters, and the plan's generous t is
// the safe, known-runnable choice. Survivor-only rounds (checksum-failed
// scopes whose decoding succeeded — the steady-state exception path) are
// re-planned, with two guards that keep the deviation a strict
// improvement over replaying the plan:
//
//   - The success target is the static plan's own one-round success at
//     this load, not an absolute bound. With capacity t ≥ load, success
//     depends only on the bitmap size, so demanding an absolute 0.99
//     would inflate the bitmap well past the plan's when the plan itself
//     tolerates a retry — paying more bits for fewer expected rounds the
//     replay never promised.
//   - The deviation must be strictly cheaper than the replay's
//     (t + load)·m bits; otherwise the round replays the plan. Survivor
//     capacity t ≈ load + 2, not the plan's t sized for 2.5δ errors, is
//     where the savings come from — dramatic when the plan was built for
//     a large d.
func (a *Alice) replanRound() {
	load := 0
	for _, sc := range a.active {
		if sc.splitFresh {
			a.curM, a.curT = a.plan.M, a.plan.T
			return
		}
		load = max(load, sc.loadHint)
	}
	if load < 1 {
		load = 1
	}
	target := DefaultTargetSuccess
	if c, err := markov.NewChain((uint64(1)<<a.plan.M)-1, a.plan.T); err == nil {
		if p := c.SuccessProb(load, 1); p < target {
			target = p
		}
	}
	p, err := markov.Replan(load, 1, target)
	if err != nil || p.BitsPerGroup >= (a.plan.T+load)*int(a.plan.M) {
		a.curM, a.curT = a.plan.M, a.plan.T
		return
	}
	if p.M != a.plan.M || p.T != a.plan.T {
		a.replans++
	}
	a.curM, a.curT = p.M, p.T
}

// Done reports whether every scope has passed checksum verification.
func (a *Alice) Done() bool { return len(a.active) == 0 && !a.awaiting }

// Rounds returns the number of rounds started so far.
func (a *Alice) Rounds() int { return a.round }

// PayloadBits returns the cumulative protocol-payload bits Alice has sent
// (BCH codewords), excluding message framing.
func (a *Alice) PayloadBits() int { return a.payloadBits }

// SketchesSent returns how many per-scope BCH codewords Alice has sent.
func (a *Alice) SketchesSent() int { return a.sketchesSent }

// Difference returns the learned estimate of A△B accumulated so far. After
// Done() it is exactly A△B (barring the O(2^−sigBits) false-verification
// event analysed in §2.2.3).
func (a *Alice) Difference() []uint64 {
	out := make([]uint64, 0, len(a.diff))
	for x := range a.diff {
		out = append(out, x)
	}
	return out
}

// BuildRound builds the next round message for Bob: one scope descriptor
// plus BCH codeword per active scope. It returns nil when reconciliation
// has completed. Per-scope encoding (bin folding and sketch construction)
// fans out across the plan's worker pool; serialization stays in scope
// order, so the message bytes do not depend on Parallelism.
func (a *Alice) BuildRound() ([]byte, error) {
	if a.awaiting {
		return nil, fmt.Errorf("core: BuildRound called with a reply outstanding")
	}
	if len(a.active) == 0 {
		return nil, nil
	}
	a.round++
	if a.adaptive && a.round >= 2 {
		a.replanRound()
	}
	n := (uint64(1) << a.curM) - 1
	nw := a.plan.workers()
	// Grow the long-lived scratch to this round's shape; in steady state
	// every buffer below is a reuse. An adaptive (m, t) change invalidates
	// the sketch scratch wholesale.
	if a.skM != a.curM || a.skT != a.curT {
		a.sketches = a.sketches[:0]
		a.skM, a.skT = a.curM, a.curT
	}
	for len(a.parity) < nw {
		a.parity = append(a.parity, nil)
	}
	for len(a.sketches) < len(a.active) {
		a.sketches = append(a.sketches, bch.MustNew(a.curM, a.curT))
	}
	for _, sc := range a.active {
		if sc.binSums != nil && uint64(len(sc.binSums)) != n+1 {
			sc.binSums = nil // wrong adaptive size; drop, don't pool
		}
		if sc.binSums == nil {
			sc.binSums = a.getSums(n)
		} else {
			clear(sc.binSums)
		}
	}
	// Round 1 runs on the root scopes, whose base folds the snapshot may
	// have cached: each is then a copy plus the fold of the group's delta.
	var fold *roundFold
	if a.round == 1 {
		fold = a.base.roundOneFold(a.part, a.curM, nw)
	}
	durs := a.roundDurs(nw)
	forEachScope(nw, len(a.active), func(worker, i int) {
		t0 := time.Now()
		sc := a.active[i]
		sc.binSeed = a.sd.binSeed(sc.id, a.round)
		parity := a.parity[worker]
		if uint64(len(parity)) != n+1 {
			parity = make([]bool, n+1)
			a.parity[worker] = parity
		} else {
			clear(parity)
		}
		if fold != nil {
			lo := sc.id.group * int(n+1)
			copy(sc.binSums, fold.sums[lo:lo+int(n+1)])
			copy(parity, fold.parity[lo:lo+int(n+1)])
		} else {
			foldInto(sc.set.base, sc.binSeed, n, sc.binSums, parity)
		}
		foldInto(sc.set.delta, sc.binSeed, n, sc.binSums, parity)
		for x := range sc.learned {
			b := hashutil.Bin(x, sc.binSeed, n)
			sc.binSums[b] ^= x
			parity[b] = !parity[b]
		}
		sketch := a.sketches[i]
		sketch.Reset()
		for j := uint64(1); j <= n; j++ {
			if parity[j] {
				sketch.Add(j)
			}
		}
		durs[worker] += time.Since(t0)
	})
	for _, d := range durs {
		a.encodeTime += d
	}
	serStart := time.Now()
	w := wire.NewWriter()
	w.WriteUvarint(uint64(a.round))
	if a.adaptive && a.round >= 2 {
		// Adaptive rounds carry their own parameters: the static plan no
		// longer predicts them. Round 1 never does — it is built before the
		// adaptive grant can be known — so both endpoints key on the round
		// number alone.
		w.WriteUvarint(uint64(a.curM))
		w.WriteUvarint(uint64(a.curT))
	}
	w.WriteUvarint(uint64(len(a.active)))
	for i, sc := range a.active {
		writeScopeID(w, sc.id)
		a.sketches[i].AppendTo(w)
		a.payloadBits += a.sketches[i].Bits()
		a.sketchesSent++
	}
	a.awaiting = true
	a.encodeTime += time.Since(serStart)
	return w.Bytes(), nil
}

// roundDurs returns the per-worker timing scratch, zeroed.
func (a *Alice) roundDurs(nw int) []time.Duration {
	if cap(a.durs) < nw {
		a.durs = make([]time.Duration, nw)
	}
	a.durs = a.durs[:nw]
	clear(a.durs)
	return a.durs
}

// aliceParsedScope is one scope's slice of Bob's reply, parsed off the
// sequential bit stream before the parallel processing phase.
type aliceParsedScope struct {
	ok        bool // BCH decoding succeeded on Bob's side
	positions []uint64
	sums      []uint64
	bobCk     uint64
}

// aliceScopeOutcome is the result of processing one scope's reply slice:
// the accepted recovered elements (not yet applied — the sequential merge
// phase toggles them into the working set and the global difference
// together), the checksum verdict, and — for BCH decoding failures — the
// 3-way split children.
type aliceScopeOutcome struct {
	accepted []uint64
	verified bool
	splits   []*aliceScope
}

// AbsorbReply processes Bob's reply to the message built by the last
// BuildRound call: it recovers distinct elements per scope (Procedure 1),
// discards fake distinct elements (Procedure 3), toggles the recovered
// elements into the working sets and the global difference, verifies
// checksums, and queues 3-way splits for scopes whose BCH decoding failed.
//
// The reply is parsed sequentially (the bit stream has no random access),
// the per-scope recovery and verification fan out read-only across the
// worker pool, and all state mutation — working sets, checksums, the
// global difference, the next-round scope list — happens in a sequential
// merge in scope order, keeping the session deterministic for any
// Parallelism and untouched when a malformed reply aborts the round.
func (a *Alice) AbsorbReply(reply []byte) error {
	if !a.awaiting {
		return fmt.Errorf("core: AbsorbReply without an outstanding round")
	}
	a.awaiting = false
	n := (uint64(1) << a.curM) - 1 // the in-flight round's bitmap size
	parseStart := time.Now()
	r := wire.NewReader(reply)
	if cap(a.parsed) < len(a.active) {
		a.parsed = make([]aliceParsedScope, len(a.active))
	}
	parsed := a.parsed[:len(a.active)]
	for i := range a.active {
		p := &parsed[i]
		p.positions = p.positions[:0]
		p.sums = p.sums[:0]
		p.bobCk = 0
		ok, err := r.ReadBool()
		if err != nil {
			return fmt.Errorf("core: truncated reply: %w", err)
		}
		p.ok = ok
		if !ok {
			continue
		}
		count, err := r.ReadUvarint()
		if err != nil {
			return fmt.Errorf("core: truncated reply: %w", err)
		}
		if count > n {
			return fmt.Errorf("core: reply position count %d exceeds bitmap size", count)
		}
		for j := uint64(0); j < count; j++ {
			v, err := r.ReadBits(a.curM)
			if err != nil {
				return fmt.Errorf("core: truncated reply: %w", err)
			}
			p.positions = append(p.positions, v)
		}
		for j := uint64(0); j < count; j++ {
			v, err := r.ReadBits(a.plan.SigBits)
			if err != nil {
				return fmt.Errorf("core: truncated reply: %w", err)
			}
			p.sums = append(p.sums, v)
		}
		if p.bobCk, err = r.ReadBits(a.plan.SigBits); err != nil {
			return fmt.Errorf("core: truncated reply: %w", err)
		}
	}

	a.decodeTime += time.Since(parseStart)

	// The parallel phase is strictly read-only on session state: workers
	// compute accepted elements, the would-be checksum, and split children
	// without mutating anything, so an error below leaves the session
	// exactly as it was (no half-applied round).
	if cap(a.outcomes) < len(a.active) {
		a.outcomes = make([]aliceScopeOutcome, len(a.active))
	}
	outcomes := a.outcomes[:len(a.active)]
	errs := newScopeErrors(len(a.active))
	nw := a.plan.workers()
	durs := a.roundDurs(nw)
	forEachScope(nw, len(a.active), func(worker, i int) {
		t0 := time.Now()
		defer func() { durs[worker] += time.Since(t0) }()
		sc := a.active[i]
		p := &parsed[i]
		out := &outcomes[i]
		out.accepted = out.accepted[:0]
		out.verified = false
		out.splits = nil
		if !p.ok {
			// BCH decoding failure (§3.2): split three ways for next round.
			out.splits = a.splitScope(sc)
			return
		}
		ck := sc.checksum
		for j, pos := range p.positions {
			if pos == 0 || pos > n {
				errs.set(i, fmt.Errorf("core: reply position %d out of range", pos))
				return
			}
			s := sc.binSums[pos] ^ p.sums[j]
			if !a.acceptRecovered(sc, s, pos) {
				continue
			}
			ck = a.checksumToggle(ck, s, sc.contains(s))
			out.accepted = append(out.accepted, s)
		}
		// Verified scopes are reconciled subset pairs (§2.2.3).
		out.verified = ck == p.bobCk
	})
	for _, d := range durs {
		a.decodeTime += d
	}
	if err := errs.first(); err != nil {
		return err
	}

	mergeStart := time.Now()
	var next []*aliceScope
	var delta []uint64
	for i, sc := range a.active {
		out := &outcomes[i]
		if out.splits != nil {
			a.putSums(sc.binSums)
			sc.binSums = nil
			for _, child := range out.splits {
				child.splitFresh = true
			}
			next = append(next, out.splits...)
			continue
		}
		sc.bobChecksum = parsed[i].bobCk
		sc.haveBobChecksum = true
		for _, s := range out.accepted {
			a.toggle(sc, s)
		}
		if out.verified {
			// The scope is done: recycle its bin-sum buffer for future
			// rounds (surviving scopes keep theirs attached).
			a.putSums(sc.binSums)
			sc.binSums = nil
			// The scope's learned toggles just passed verification: they
			// are confirmed difference elements, deliverable now.
			if a.onDelta != nil {
				for x := range sc.learned {
					delta = append(delta, x)
				}
			}
		} else {
			sc.loadHint = survivorLoad
			sc.splitFresh = false
			next = append(next, sc)
		}
	}
	a.active = next
	if len(delta) > 0 {
		// Map iteration randomizes within-scope order; sort so the stream a
		// caller observes is deterministic for a given exchange.
		slices.Sort(delta)
		a.onDelta(delta, a.round)
	}
	a.decodeTime += time.Since(mergeStart)
	return nil
}

// acceptRecovered applies the fake-distinct-element checks: the recovered
// s must be a valid universe element, must hash into the bin it was
// recovered from (Procedure 3), and must belong to this scope's group and
// split path (the sub-universe membership condition).
func (a *Alice) acceptRecovered(sc *aliceScope, s uint64, pos uint64) bool {
	if s == 0 || s&^a.sigMask != 0 {
		return false
	}
	if hashutil.Bin(s, sc.binSeed, (uint64(1)<<a.curM)-1) != pos {
		return false
	}
	if a.sd.groupOf(s, a.plan.Groups) != sc.id.group {
		return false
	}
	cur := newScopeID(sc.id.group)
	for i := 0; i < len(sc.id.path); i++ {
		if a.sd.childOf(s, cur) != int(sc.id.path[i]-'0') {
			return false
		}
		cur = cur.child(int(sc.id.path[i] - '0'))
	}
	return true
}

// checksumToggle returns the plain-sum checksum after toggling element s,
// where present reports whether s is currently in the set. The parallel
// phase uses it to predict the post-merge checksum; toggle applies it.
func (a *Alice) checksumToggle(ck, s uint64, present bool) uint64 {
	if present {
		return (ck - s) & a.sigMask
	}
	return (ck + s) & a.sigMask
}

// toggle applies s to the scope's working set (W ← W △ {s}), its checksum,
// and the global learned difference. It runs only in the sequential merge
// phase so the working sets and the difference can never diverge, even
// when a malformed reply aborts a round.
func (a *Alice) toggle(sc *aliceScope, s uint64) {
	sc.checksum = a.checksumToggle(sc.checksum, s, sc.contains(s))
	toggleIn(&sc.learned, s)
	toggleIn(&a.diff, s)
}

// toggleIn flips x's membership in *m, allocating the map on first use.
func toggleIn(m *map[uint64]struct{}, x uint64) {
	if _, in := (*m)[x]; in {
		delete(*m, x)
		return
	}
	if *m == nil {
		*m = make(map[uint64]struct{})
	}
	(*m)[x] = struct{}{}
}

// splitScope partitions sc's working set into splitWays children: the
// snapshot share is filtered by child hash, learned toggles follow their
// elements, and each child's checksum is rebuilt from its parts.
func (a *Alice) splitScope(sc *aliceScope) []*aliceScope {
	kids, baseSums := sc.set.split(a.sd, sc.id)
	children := make([]*aliceScope, splitWays)
	for i := range children {
		children[i] = &aliceScope{id: sc.id.child(i), set: kids[i]}
	}
	for x := range sc.learned {
		toggleIn(&children[a.sd.childOf(x, sc.id)].learned, x)
	}
	for i, c := range children {
		ck := c.set.checksum(baseSums[i], a.sigMask)
		for x := range c.learned {
			ck = a.checksumToggle(ck, x, c.set.contains(x))
		}
		c.checksum = ck
	}
	return children
}

func writeScopeID(w *wire.Writer, id scopeID) {
	w.WriteUvarint(uint64(id.group))
	w.WriteUvarint(uint64(len(id.path)))
	for i := 0; i < len(id.path); i++ {
		w.WriteBits(uint64(id.path[i]-'0'), 2)
	}
}

func readScopeID(r *wire.Reader) (scopeID, error) {
	g, err := r.ReadUvarint()
	if err != nil {
		return scopeID{}, err
	}
	plen, err := r.ReadUvarint()
	if err != nil {
		return scopeID{}, err
	}
	if plen > 64 {
		return scopeID{}, fmt.Errorf("core: absurd split depth %d", plen)
	}
	path := make([]byte, plen)
	for i := range path {
		c, err := r.ReadBits(2)
		if err != nil {
			return scopeID{}, err
		}
		if c >= splitWays {
			return scopeID{}, fmt.Errorf("core: split child %d out of range", c)
		}
		path[i] = byte('0' + c)
	}
	return makeScopeID(int(g), string(path)), nil
}
