package core

import (
	"fmt"
	"slices"
	"sync"
)

// Snapshot is an immutable, pre-validated view of one party's set, built
// once and shared by any number of concurrent endpoints. A server holding
// a large set and answering thousands of reconciliation sessions pays the
// O(|S|) validation (zero/range/duplicate checks) a single time, and the
// per-plan group partition is computed once per distinct group count and
// then shared read-only — instead of every session re-validating and
// re-partitioning a private copy.
//
// A snapshot is an immutable base plus a small delta, S = base △ delta.
// The base carries everything that costs O(|S|): the validated elements,
// the per-plan group partitions (each group sorted), the per-group
// checksums, and the round-1 bin folds. Every snapshot derived from the
// base through a Delta shares those caches, so a set that changed by k
// elements since its base costs O(k) per session rather than O(|S|). The
// fold is linear over △, so round 1 of either endpoint is the cached fold
// XOR the fold of the group's delta, and only scopes that survive or split
// into later rounds walk their group's base.
//
// All methods are safe for concurrent use. The element slices handed out
// are shared: callers must treat them as read-only.
type Snapshot struct {
	b     *snapBase
	delta []uint64 // ascending; elements toggled relative to b.elems
	n     int      // |b.elems △ delta|

	flatOnce sync.Once
	flat     []uint64 // Elements() of a snapshot with a delta, materialized once
}

// snapBase is the O(|S|) part of a snapshot, shared by every snapshot
// derived from it.
type snapBase struct {
	elems   []uint64 // validated; read-only and never reordered
	sorted  bool     // elems ascending: groups partition out sorted
	sigBits uint
	seed    uint64
	sd      seeds

	mu    sync.Mutex
	parts map[int]*partition     // group count -> partition, lazily cached
	folds map[foldKey]*roundFold // lazily cached round-1 folds
}

// partition is the base hash-partitioned into groups.
type partition struct {
	groups [][]uint64 // each ascending
	sums   []uint64   // c(group), the plain-sum checksum of each group
}

type foldKey struct {
	groups int
	m      uint
}

// roundFold is the round-1 bin fold of every group of a partition under
// binSeed(group root scope, 1): group g's n+1 bin XOR-sums and parities
// sit at [g·(n+1), (g+1)·(n+1)).
type roundFold struct {
	sums   []uint64
	parity []bool
}

func newSnapshot(elems []uint64, sigBits uint, seed uint64) *Snapshot {
	return &Snapshot{
		b: &snapBase{
			elems:   elems,
			sorted:  slices.IsSorted(elems),
			sigBits: sigBits,
			seed:    seed,
			sd:      deriveSeeds(seed),
			parts:   make(map[int]*partition),
			folds:   make(map[foldKey]*roundFold),
		},
		n: len(elems),
	}
}

func checkSigBits(bits uint) error {
	if bits < 8 || bits > 64 {
		return fmt.Errorf("core: sigBits=%d out of range [8,64]", bits)
	}
	return nil
}

// NewSnapshot validates set once under cfg (only SigBits and Seed are
// consulted; zero values select the defaults, as in NewPlan) and returns a
// shareable snapshot over a sorted private copy. Elements must be nonzero,
// distinct, and fit in SigBits bits — the same contract NewAlice and
// NewBob enforce.
func NewSnapshot(set []uint64, cfg Config) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	if err := checkSigBits(cfg.SigBits); err != nil {
		return nil, err
	}
	mask := sigMask(cfg.SigBits)
	for _, x := range set {
		if x == 0 || x&^mask != 0 {
			return nil, fmt.Errorf("core: element %#x outside %d-bit universe (0 excluded)", x, cfg.SigBits)
		}
	}
	elems := slices.Clone(set)
	slices.Sort(elems)
	for i := 1; i < len(elems); i++ {
		if elems[i] == elems[i-1] {
			return nil, fmt.Errorf("core: duplicate element %#x", elems[i])
		}
	}
	return newSnapshot(elems, cfg.SigBits, cfg.Seed), nil
}

// NewValidatedSnapshot wraps an element slice the caller has already
// validated (nonzero, distinct, within SigBits bits — e.g. elements drawn
// from a set handle that enforced the contract at insertion time) without
// re-running the O(|S|) validation pass. The slice is retained, not copied,
// and never reordered: the caller must not modify it afterwards. Ascending
// input lets partitions skip their per-group sort.
func NewValidatedSnapshot(elems []uint64, cfg Config) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	if err := checkSigBits(cfg.SigBits); err != nil {
		return nil, err
	}
	return newSnapshot(elems, cfg.SigBits, cfg.Seed), nil
}

// Len returns the number of elements in the snapshot.
func (s *Snapshot) Len() int { return s.n }

// Contains reports whether x is in the snapshot: a binary search in the
// base (in a sorted copy of it, for an unsorted base) XOR one in the
// delta.
func (s *Snapshot) Contains(x uint64) bool {
	return s.b.contains(x) != has(s.delta, x)
}

// SigBits returns the signature width the snapshot was validated against.
func (s *Snapshot) SigBits() uint { return s.b.sigBits }

// Seed returns the master hash seed the snapshot partitions under.
func (s *Snapshot) Seed() uint64 { return s.b.seed }

// Elements returns the validated element slice. It is shared, not copied:
// the caller must not modify it. A snapshot with a delta materializes
// base △ delta once, in O(|S|), on the first call.
func (s *Snapshot) Elements() []uint64 {
	if len(s.delta) == 0 {
		return s.b.elems
	}
	s.flatOnce.Do(func() { s.flat = SymDiff(make([]uint64, 0, s.n), s.b.elems, s.delta) })
	return s.flat
}

// has reports whether x is in the ascending slice xs.
func has(xs []uint64, x uint64) bool {
	_, ok := slices.BinarySearch(xs, x)
	return ok
}

// SymDiff appends the symmetric difference of the ascending slices a and
// b to out, in ascending order: applied to a sorted set and a sorted list
// of toggles, it is the set after the toggles, in one merge.
func SymDiff(out, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func (b *snapBase) contains(x uint64) bool {
	if b.sorted {
		return has(b.elems, x)
	}
	return has(b.partition(1).groups[0], x)
}

// maxCachedPartitions bounds snapBase.parts. The group count is derived
// from the peer-influenced d̂, so an unbounded cache would let a hostile
// client grow server memory by forging a different estimate per session;
// honest traffic clusters around a handful of group counts, which all fit.
// At the cap an arbitrary entry is evicted, so forged estimates can at
// worst force recomputation — per-session O(|S|), exactly like NewBob —
// never unbounded growth or a poisoned cache. maxCachedFolds bounds the
// round-1 folds the same way; each fold weighs at most 9 bytes per element
// (see roundOneFold).
const (
	maxCachedPartitions = 8
	maxCachedFolds      = 4
)

// evictOne makes room for one more entry in a cache holding limit.
func evictOne[K comparable, V any](m map[K]V, limit int) {
	if len(m) < limit {
		return
	}
	for k := range m {
		delete(m, k)
		return
	}
}

// cacheableGroups bounds the size of an individual cached partition: a
// partition costs O(groups) slice headers regardless of |S|, so caching a
// forged-estimate partition with groups ≫ |S| would pin megabytes of
// mostly-empty headers per cache slot. Such partitions are still computed
// and returned — the allocation is transient and GC-reclaimed with the
// session — just never retained.
func (b *snapBase) cacheableGroups(groups int) bool {
	return groups <= 4*len(b.elems)+64
}

// partition returns the base hash-partitioned into groups buckets,
// caching up to maxCachedPartitions distinct group counts. The partition
// is computed outside the lock so concurrent sessions are never serialized
// behind an O(|S|) pass (two sessions may race to compute the same
// partition; either result is valid and one wins the cache slot). The
// returned partition is shared across callers and must be treated as
// read-only.
func (b *snapBase) partition(groups int) *partition {
	b.mu.Lock()
	if p, ok := b.parts[groups]; ok {
		b.mu.Unlock()
		return p
	}
	b.mu.Unlock()

	p := b.buildPartition(groups)
	if !b.cacheableGroups(groups) {
		return p
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if cached, ok := b.parts[groups]; ok {
		return cached
	}
	evictOne(b.parts, maxCachedPartitions)
	b.parts[groups] = p
	return p
}

// buildPartition counts each group's size, then places every element into
// one shared backing array, so a partition is three allocations whatever
// the group count. Placement is stable, so a sorted base yields sorted
// groups; otherwise each group is sorted in place.
func (b *snapBase) buildPartition(groups int) *partition {
	gid := make([]uint32, len(b.elems))
	off := make([]int, groups+1)
	for i, x := range b.elems {
		g := b.sd.groupOf(x, groups)
		gid[i] = uint32(g)
		off[g+1]++
	}
	for g := 0; g < groups; g++ {
		off[g+1] += off[g]
	}
	p := &partition{groups: make([][]uint64, groups), sums: make([]uint64, groups)}
	flat := make([]uint64, len(b.elems))
	for i, x := range b.elems {
		g := gid[i]
		flat[off[g]] = x
		off[g]++
		p.sums[g] += x
	}
	// off[g] now marks the end of group g, which is where group g+1 starts.
	mask := sigMask(b.sigBits)
	start := 0
	for g := range p.groups {
		grp := flat[start:off[g]:off[g]]
		if !b.sorted {
			slices.Sort(grp)
		}
		p.groups[g] = grp
		p.sums[g] &= mask
		start = off[g]
	}
	return p
}

// roundOneFold returns the round-1 fold of every group of p (the base's
// partition into len(p.groups) groups) for bitmaps of n = 2^m − 1 bins,
// caching up to maxCachedFolds. It returns nil when groups·(n+1) exceeds
// the base size: such a fold would outweigh the set it summarizes, and
// folding the groups directly costs no more than copying it. The fold is
// computed outside the lock, fanned out over workers like a round.
func (b *snapBase) roundOneFold(p *partition, m uint, workers int) *roundFold {
	groups := len(p.groups)
	stride := uint64(1) << m
	if uint64(groups)*stride > uint64(len(b.elems)) {
		return nil
	}
	key := foldKey{groups: groups, m: m}
	b.mu.Lock()
	if f, ok := b.folds[key]; ok {
		b.mu.Unlock()
		return f
	}
	b.mu.Unlock()

	size := groups * int(stride)
	f := &roundFold{sums: make([]uint64, size), parity: make([]bool, size)}
	forEachScope(workers, groups, func(_, g int) {
		lo, hi := g*int(stride), (g+1)*int(stride)
		foldInto(p.groups[g], b.sd.binSeed(newScopeID(g), 1), stride-1, f.sums[lo:hi], f.parity[lo:hi])
	})

	b.mu.Lock()
	defer b.mu.Unlock()
	if cached, ok := b.folds[key]; ok {
		return cached
	}
	evictOne(b.folds, maxCachedFolds)
	b.folds[key] = f
	return f
}

// groupDeltas returns the snapshot's delta partitioned into groups, each
// ascending, or nil when there is no delta.
func (s *Snapshot) groupDeltas(groups int) [][]uint64 {
	if len(s.delta) == 0 {
		return nil
	}
	out := make([][]uint64, groups)
	for _, x := range s.delta {
		g := s.b.sd.groupOf(x, groups)
		out[g] = append(out[g], x)
	}
	return out
}

// rootScopes returns, for each group of plan, the snapshot's share of it
// and that share's checksum — the starting state of both endpoints.
func (s *Snapshot) rootScopes(plan Plan) (*partition, []scopeSet, []uint64) {
	p := s.b.partition(plan.Groups)
	deltas := s.groupDeltas(plan.Groups)
	sets := make([]scopeSet, plan.Groups)
	sums := make([]uint64, plan.Groups)
	mask := sigMask(s.b.sigBits)
	for g := range sets {
		sets[g].base = p.groups[g]
		if deltas != nil {
			sets[g].delta = deltas[g]
		}
		sums[g] = sets[g].checksum(p.sums[g], mask)
	}
	return p, sets, sums
}

// checkPlan verifies that plan may run against the snapshot: the plan's
// Seed and SigBits must match the snapshot's (the partition is derived
// from them), while the rest of the plan (bitmap size, capacity, groups)
// may vary per session, as it does when each session's plan is derived
// from its own d̂.
func (s *Snapshot) checkPlan(plan Plan) error {
	if err := plan.validate(); err != nil {
		return err
	}
	if plan.Seed != s.b.seed {
		return fmt.Errorf("core: plan seed %#x does not match snapshot seed %#x", plan.Seed, s.b.seed)
	}
	if plan.SigBits != s.b.sigBits {
		return fmt.Errorf("core: plan sigBits %d does not match snapshot sigBits %d", plan.SigBits, s.b.sigBits)
	}
	return nil
}

// Delta tracks a mutable set as a base snapshot plus the net changes made
// since it was taken. Add and Remove cost O(1); Snapshot derives the
// current immutable view in O(k log k) for k net changes, sharing the
// base's partitions and folds. It is not safe for concurrent use: the
// owner (a set handle) serializes access.
type Delta struct {
	base    *Snapshot
	changes map[uint64]bool // x -> true: added (x ∉ base); false: removed (x ∈ base)
}

// NewDelta starts tracking changes against base, which must be a fresh
// snapshot (one with no delta) over ascending elements, as NewSnapshot's
// always are.
func NewDelta(base *Snapshot) *Delta {
	if len(base.delta) != 0 || !base.b.sorted {
		panic("core: NewDelta needs a delta-free snapshot over ascending elements")
	}
	return &Delta{base: base, changes: make(map[uint64]bool)}
}

// Add records that x, absent from the tracked set, was inserted. The
// caller guarantees x is valid and was absent.
func (d *Delta) Add(x uint64) { d.toggle(x, true) }

// Remove records that x, present in the tracked set, was deleted.
func (d *Delta) Remove(x uint64) { d.toggle(x, false) }

func (d *Delta) toggle(x uint64, added bool) {
	if _, undo := d.changes[x]; undo {
		delete(d.changes, x)
		return
	}
	d.changes[x] = added
}

// Once the net changes exceed 1/compactDiv of the base (plus compactSlack,
// so small sets are not rebuilt every few mutations), Snapshot compacts:
// it folds them into a fresh base in one O(|S|) pass. Beyond that point
// the per-session O(k) work — copying, grouping and folding the delta —
// stops being small against the rebuild it avoids, and the amortized cost
// of compaction stays O(compactDiv) per mutation.
const (
	compactDiv   = 32
	compactSlack = 64
)

// Snapshot returns the immutable snapshot of the tracked set's current
// contents, compacting first if the changes have outgrown the base.
func (d *Delta) Snapshot() *Snapshot {
	if len(d.changes) == 0 {
		return d.base
	}
	delta := make([]uint64, 0, len(d.changes))
	n := d.base.n
	for x, added := range d.changes {
		delta = append(delta, x)
		if added {
			n++
		} else {
			n--
		}
	}
	slices.Sort(delta)
	b := d.base.b
	if len(delta) > len(b.elems)/compactDiv+compactSlack {
		d.base = newSnapshot(SymDiff(make([]uint64, 0, n), b.elems, delta), b.sigBits, b.seed)
		d.changes = make(map[uint64]bool)
		return d.base
	}
	return &Snapshot{b: b, delta: delta, n: n}
}

// NewBobFromSnapshot creates a Bob endpoint that reconciles against the
// shared snapshot without copying or re-validating it. See checkPlan for
// which plan fields must match the snapshot.
func NewBobFromSnapshot(snap *Snapshot, plan Plan) (*Bob, error) {
	if err := snap.checkPlan(plan); err != nil {
		return nil, err
	}
	part, sets, sums := snap.rootScopes(plan)
	return &Bob{
		plan:      plan,
		sd:        snap.b.sd,
		sigMask:   sigMask(plan.SigBits),
		base:      snap.b,
		part:      part,
		roots:     sets,
		rootSums:  sums,
		scopeSets: make(map[scopeID]scopeSet),
		checksums: make(map[scopeID]uint64),
		curM:      plan.M,
		curT:      plan.T,
	}, nil
}
