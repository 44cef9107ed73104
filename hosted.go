package pbs

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pbs/internal/core"
	"pbs/internal/estimator"
	"pbs/internal/msethash"
	"pbs/internal/setstore"
)

// Logical accounting for hosted sets: each element is charged 8 bytes
// (its wire size) against tenant byte quotas, and a resident set carries a
// fixed overhead on top toward the resident-bytes watermark.
const (
	hostedElemBytes   = 8
	hostedSetOverhead = 256
)

// DefaultMergeThreshold is the segment-chain length at which the store's
// background merger folds a hosted set's chain into one full segment.
const DefaultMergeThreshold = 4

// hostedStore manages the Server's hosted sets: resident-bytes accounting
// with LRU eviction, cold loads from the segment store, and flush of
// dirty state on eviction. It is the in-memory head over setstore's
// immutable segments.
type hostedStore struct {
	opt Options // server protocol options, defaults applied
	tow *estimator.ToW

	// store is the persistent segment layer; nil means memory-only
	// hosting, under which eviction is disabled (dropping a set would
	// lose it). Set once by EnableHosting before the server serves.
	store       *setstore.Store
	maxResident int64

	// mu guards the LRU list and each member's lruPos/charge fields.
	mu  sync.Mutex
	lru *list.List // of *hostedSet; front = most recently used

	residentBytes atomic.Int64
	residentSets  atomic.Int64
	coldLoads     atomic.Int64
	evictions     atomic.Int64
}

func newHostedStore(opt Options, maxResident int64) (*hostedStore, error) {
	tow, err := estimator.NewToW(opt.EstimatorSketches, opt.Seed^towSeedTweak)
	if err != nil {
		return nil, err
	}
	return &hostedStore{opt: opt, tow: tow, maxResident: maxResident, lru: list.New()}, nil
}

// sketchSeed is the seed stamped into persisted segment footers, checked
// on recovery so a data dir written under different protocol options is
// rejected instead of silently mis-estimating.
func (h *hostedStore) sketchSeed() uint64 { return h.opt.Seed ^ towSeedTweak }

// metaFor computes the full cumulative metadata of an element list.
func (h *hostedStore) metaFor(elems []uint64) setstore.Meta {
	mh := msethash.New(h.opt.Seed ^ verifySeedTweak)
	mh.AddSet(elems)
	d := mh.Sum()
	return setstore.Meta{
		Count:      uint64(len(elems)),
		SketchSeed: h.sketchSeed(),
		Sketch:     h.tow.Sketch(elems),
		Digest:     d.Bytes(),
	}
}

// hostedSet is one named set under hostedStore management. It implements
// setSource, so the Server's registry serves sessions from it directly:
// resident, sessions get a materialized SharedSet; cold, they get a lazy
// view that answers estimates from the persisted sketch/digest and pages
// elements in only for a real delta round.
type hostedSet struct {
	h    *hostedStore
	name string

	mu         sync.Mutex
	meta       setstore.Meta // cumulative; kept current on every update
	elems      []uint64      // sorted; nil when cold
	view       *SharedSet    // cached until mutation or demotion invalidates it
	resident   bool
	persisted  bool                // at least one full segment on disk
	priorDirty bool                // d̂ prior advanced since the last persisted footer
	dirtyAdds  map[uint64]struct{} // changes since the last persisted segment
	dirtyDels  map[uint64]struct{}

	// lruPos and charge are guarded by h.mu (LRU bookkeeping), not mu.
	lruPos *list.Element
	charge int64
}

// logicalBytes is the tenant-quota charge of this set.
func (hs *hostedSet) logicalBytes() int64 {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hostedElemBytes * int64(hs.meta.Count)
}

func (hs *hostedSet) residentCharge() int64 {
	return hostedSetOverhead + hostedElemBytes*int64(hs.meta.Count)
}

// host builds a new resident hosted set from elems, persisting its first
// full segment when the disk layer is enabled. The caller registers it
// (quota checks) before calling persist.
func (h *hostedStore) host(name string, elems []uint64) *hostedSet {
	sorted := slices.Clone(elems)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	return &hostedSet{h: h, name: name, elems: sorted, resident: true, meta: h.metaFor(sorted)}
}

// recover builds a cold hosted set from the newest persisted segment
// footer — a tail-only read, no elements touched.
func (h *hostedStore) recover(name string) (*hostedSet, error) {
	meta, err := h.store.Meta(name)
	if err != nil {
		return nil, err
	}
	if meta.SketchSeed != h.sketchSeed() {
		return nil, fmt.Errorf("pbs: set %q persisted under sketch seed %#x, server uses %#x", name, meta.SketchSeed, h.sketchSeed())
	}
	if len(meta.Sketch) != h.tow.L() {
		return nil, fmt.Errorf("pbs: set %q persisted with %d-lane sketch, server uses %d", name, len(meta.Sketch), h.tow.L())
	}
	if _, ok := msethash.DigestFromBytes(meta.Digest); !ok {
		return nil, fmt.Errorf("pbs: set %q has a malformed persisted digest", name)
	}
	return &hostedSet{h: h, name: name, meta: meta, persisted: true}, nil
}

// persist writes the initial full segment of a freshly hosted set and
// inserts it into the resident accounting (which may evict others).
func (hs *hostedSet) persist() error {
	hs.mu.Lock()
	if hs.h.store != nil && !hs.persisted {
		if err := hs.h.store.AppendFull(hs.name, hs.elems, hs.meta); err != nil {
			hs.mu.Unlock()
			return err
		}
		hs.persisted = true
	}
	hs.mu.Unlock()
	hs.h.noteResident(hs)
	return nil
}

// sharedView implements setSource.
func (hs *hostedSet) sharedView() (*SharedSet, error) {
	hs.mu.Lock()
	if hs.view == nil {
		if hs.resident {
			v, err := hs.residentViewLocked()
			if err != nil {
				hs.mu.Unlock()
				return nil, err
			}
			hs.view = v
		} else {
			v, err := newLazySharedSet(hs.h.opt, int(hs.meta.Count), slices.Clone(hs.meta.Sketch), hs.digestLocked(), hs.loadSnapshot)
			if err != nil {
				hs.mu.Unlock()
				return nil, err
			}
			v.observeDhat = hs.observeDhat
			hs.view = v
		}
	}
	v, resident := hs.view, hs.resident
	hs.mu.Unlock()
	if resident {
		hs.h.touch(hs)
	}
	return v, nil
}

// sessionOptions implements setSource: hosted sessions run under the
// server's protocol options.
func (hs *hostedSet) sessionOptions() Options { return hs.h.opt }

// observeDhat folds one answered difference estimate into the set's
// persisted d̂ prior (EWMA mean and variance in the segment footer). It is
// installed as SharedSet.observeDhat on every view this set hands out, so
// each estimate a session answers — resident or lazy — advances the prior;
// the next footer write carries it across restarts.
func (hs *hostedSet) observeDhat(dhat uint64) {
	hs.mu.Lock()
	hs.meta.PriorMean, hs.meta.PriorVar, hs.meta.PriorCount =
		ewmaObserve(hs.meta.PriorMean, hs.meta.PriorVar, hs.meta.PriorCount, float64(dhat))
	hs.priorDirty = true
	hs.mu.Unlock()
}

func (hs *hostedSet) digestLocked() msethash.Digest {
	d, _ := msethash.DigestFromBytes(hs.meta.Digest)
	return d
}

// residentViewLocked builds the materialized SharedSet for a resident
// set, preseeding the sketch and digest from the incrementally maintained
// metadata so neither is recomputed O(|S|) per rebuild.
func (hs *hostedSet) residentViewLocked() (*SharedSet, error) {
	snap, err := core.NewSnapshot(hs.elems, hs.h.opt.coreConfig())
	if err != nil {
		return nil, err
	}
	ss := &SharedSet{opt: hs.h.opt, snap: snap, tow: hs.h.tow, observeDhat: hs.observeDhat}
	sketch := slices.Clone(hs.meta.Sketch)
	digest := hs.digestLocked()
	ss.sketchOnce.Do(func() { ss.sketch = sketch })
	ss.digestOnce.Do(func() { ss.digest = digest })
	return ss, nil
}

// loadSnapshot is the lazy view's cold-load path: page the elements in
// from the segment store, promote the set to resident, and build the
// session snapshot. Runs at most once per lazy view (SharedSet.snapOnce).
func (hs *hostedSet) loadSnapshot() (*core.Snapshot, error) {
	hs.mu.Lock()
	if hs.elems == nil {
		if hs.h.store == nil {
			hs.mu.Unlock()
			return nil, fmt.Errorf("pbs: hosted set %q has no elements and no store", hs.name)
		}
		elems, meta, err := hs.h.store.Load(hs.name)
		if err != nil {
			hs.mu.Unlock()
			return nil, err
		}
		hs.elems, hs.meta = elems, meta
		hs.h.coldLoads.Add(1)
	}
	elems := hs.elems
	wasResident := hs.resident
	hs.resident = true
	hs.mu.Unlock()
	if !wasResident {
		hs.h.noteResident(hs)
	}
	return core.NewSnapshot(elems, hs.h.opt.coreConfig())
}

// update applies adds and removes to the set, maintaining the cumulative
// sketch/digest/count incrementally on the write path (the property that
// lets the set keep answering estimates after eviction). Returns how many
// elements were actually inserted and deleted.
func (hs *hostedSet) update(add, remove []uint64) (added, removed int, err error) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.elems == nil {
		if hs.h.store == nil {
			return 0, 0, fmt.Errorf("pbs: hosted set %q has no elements and no store", hs.name)
		}
		elems, meta, lerr := hs.h.store.Load(hs.name)
		if lerr != nil {
			return 0, 0, lerr
		}
		hs.elems, hs.meta = elems, meta
		hs.h.coldLoads.Add(1)
		// The set is now materialized but deliberately NOT promoted to
		// resident here: update is a write-path operation and the caller
		// settles residency afterwards via settleResidency.
		hs.resident = true
	}
	if hs.dirtyAdds == nil {
		hs.dirtyAdds = make(map[uint64]struct{})
		hs.dirtyDels = make(map[uint64]struct{})
	}
	mh := msethash.FromDigest(hs.h.opt.Seed^verifySeedTweak, hs.digestLocked())
	// Adds apply first, then removes, each input counted once. ins is
	// what the adds inserted and hits what the removes found (in the old
	// elements or in ins), both ascending, so the new element list is one
	// merge of the old against their symmetric difference.
	var ins, hits []uint64
	for _, x := range sortedUnique(add) {
		if _, ok := slices.BinarySearch(hs.elems, x); ok {
			continue
		}
		ins = append(ins, x)
		hs.h.tow.Add(hs.meta.Sketch, x)
		mh.Add(x)
		added++
		if _, wasDel := hs.dirtyDels[x]; wasDel {
			delete(hs.dirtyDels, x)
		} else {
			hs.dirtyAdds[x] = struct{}{}
		}
	}
	for _, x := range sortedUnique(remove) {
		_, old := slices.BinarySearch(hs.elems, x)
		if _, fresh := slices.BinarySearch(ins, x); !old && !fresh {
			continue
		}
		hits = append(hits, x)
		hs.h.tow.Remove(hs.meta.Sketch, x)
		mh.Remove(x)
		removed++
		if _, wasAdd := hs.dirtyAdds[x]; wasAdd {
			delete(hs.dirtyAdds, x)
		} else {
			hs.dirtyDels[x] = struct{}{}
		}
	}
	if added == 0 && removed == 0 {
		return 0, 0, nil
	}
	d := mh.Sum()
	hs.meta.Digest = d.Bytes()
	hs.elems = core.SymDiff(make([]uint64, 0, len(hs.elems)+len(ins)), hs.elems, core.SymDiff(nil, ins, hits))
	hs.meta.Count = uint64(len(hs.elems))
	hs.view = nil // next session sees the mutated set
	return added, removed, nil
}

// sortedUnique returns the distinct values of xs in ascending order.
func sortedUnique(xs []uint64) []uint64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// flushLocked persists the dirty state: the first flush is a full
// segment, later ones are deltas carrying the cumulative metadata.
// Requires hs.mu and a non-nil store.
func (hs *hostedSet) flushLocked() error {
	if !hs.persisted {
		if err := hs.h.store.AppendFull(hs.name, hs.elems, hs.meta); err != nil {
			return err
		}
		hs.persisted = true
		hs.priorDirty = false
		hs.dirtyAdds, hs.dirtyDels = nil, nil
		return nil
	}
	if len(hs.dirtyAdds) == 0 && len(hs.dirtyDels) == 0 && !hs.priorDirty {
		return nil
	}
	adds := make([]uint64, 0, len(hs.dirtyAdds))
	for e := range hs.dirtyAdds {
		adds = append(adds, e)
	}
	dels := make([]uint64, 0, len(hs.dirtyDels))
	for e := range hs.dirtyDels {
		dels = append(dels, e)
	}
	if err := hs.h.store.AppendDelta(hs.name, adds, dels, hs.meta); err != nil {
		return err
	}
	hs.priorDirty = false
	hs.dirtyAdds, hs.dirtyDels = nil, nil
	return nil
}

// flush persists dirty state without demoting (shutdown path). A cold set
// can still carry a dirty prior (its lazy view answers estimates), which
// persists as an element-free delta; element writes require materialized
// elems.
func (hs *hostedSet) flush() error {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.h.store == nil {
		return nil
	}
	if hs.elems == nil {
		if hs.priorDirty && hs.persisted {
			if err := hs.h.store.AppendDelta(hs.name, nil, nil, hs.meta); err != nil {
				return err
			}
			hs.priorDirty = false
		}
		return nil
	}
	return hs.flushLocked()
}

// demote evicts a resident set: flush dirty state, then drop the elements
// and the cached view. Sessions holding the old view keep their snapshot;
// new sessions get a lazy (estimate-only) view. If the flush fails the
// set stays resident — dropping unflushed data would lose writes — and is
// re-inserted into the accounting.
func (hs *hostedSet) demote() {
	hs.mu.Lock()
	if !hs.resident || hs.h.store == nil {
		hs.mu.Unlock()
		return
	}
	if err := hs.flushLocked(); err != nil {
		hs.mu.Unlock()
		hs.h.noteResident(hs)
		return
	}
	hs.elems = nil
	hs.view = nil
	hs.resident = false
	hs.mu.Unlock()
	// A promote or update racing this demotion may have re-inserted the set
	// into the LRU between our removal and here; undo that so the resident
	// accounting never carries a cold set.
	hs.h.forget(hs)
	hs.h.evictions.Add(1)
}

// noteResident inserts a set into the resident accounting (idempotent)
// and evicts least-recently-used sets while over the watermark. Eviction
// requires the disk layer; memory-only hosting never evicts.
func (h *hostedStore) noteResident(hs *hostedSet) {
	charge := hs.residentCharge()
	var victims []*hostedSet
	h.mu.Lock()
	if hs.lruPos == nil {
		hs.charge = charge
		hs.lruPos = h.lru.PushFront(hs)
		h.residentBytes.Add(charge)
		h.residentSets.Add(1)
	}
	if h.maxResident > 0 && h.store != nil {
		for h.residentBytes.Load() > h.maxResident && h.lru.Len() > 1 {
			back := h.lru.Back()
			v := back.Value.(*hostedSet)
			if v == hs {
				// Never evict the set just touched — it is about to serve.
				break
			}
			h.lru.Remove(back)
			v.lruPos = nil
			h.residentBytes.Add(-v.charge)
			h.residentSets.Add(-1)
			victims = append(victims, v)
		}
	}
	h.mu.Unlock()
	for _, v := range victims {
		v.demote()
	}
}

// recharge settles a mutated set's resident charge to its current size.
func (h *hostedStore) recharge(hs *hostedSet) {
	charge := hs.residentCharge()
	h.mu.Lock()
	if hs.lruPos != nil {
		h.residentBytes.Add(charge - hs.charge)
		hs.charge = charge
	}
	h.mu.Unlock()
}

// touch marks a resident set most-recently-used. A set mid-eviction
// (removed from the LRU but not yet demoted) is left alone — if it is
// still wanted it will cold-load and re-enter.
func (h *hostedStore) touch(hs *hostedSet) {
	h.mu.Lock()
	if hs.lruPos != nil {
		h.lru.MoveToFront(hs.lruPos)
	}
	h.mu.Unlock()
}

// forget removes a set from the resident accounting (Unregister path).
func (h *hostedStore) forget(hs *hostedSet) {
	h.mu.Lock()
	if hs.lruPos != nil {
		h.lru.Remove(hs.lruPos)
		hs.lruPos = nil
		h.residentBytes.Add(-hs.charge)
		h.residentSets.Add(-1)
	}
	h.mu.Unlock()
}

// flushAll persists every resident set's dirty state (shutdown).
func (h *hostedStore) flushAll() error {
	if h.store == nil {
		return nil
	}
	h.mu.Lock()
	sets := make([]*hostedSet, 0, h.lru.Len())
	for e := h.lru.Front(); e != nil; e = e.Next() {
		sets = append(sets, e.Value.(*hostedSet))
	}
	h.mu.Unlock()
	var firstErr error
	for _, hs := range sets {
		if err := hs.flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// EnableHosting opens the persistent segment store under
// ServerOptions.DataDir, registers every set already persisted there as a
// cold entry — a footer-only read per set, no elements touched — and
// starts the background segment merger. Call it once, before Serve and
// before the first Host. It returns how many sets were recovered.
func (s *Server) EnableHosting() (int, error) {
	if s.hosted == nil {
		return 0, s.hostedErr
	}
	if s.opt.DataDir == "" {
		return 0, errors.New("pbs: EnableHosting requires ServerOptions.DataDir")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrServerClosed
	}
	if s.store != nil {
		s.mu.Unlock()
		return 0, errors.New("pbs: hosting already enabled")
	}
	store, err := setstore.Open(s.opt.DataDir, DefaultMergeThreshold)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.store = store
	s.hosted.store = store
	s.mu.Unlock()
	n := 0
	for _, name := range store.Names() {
		hs, err := s.hosted.recover(name)
		if err != nil {
			return n, err
		}
		if err := s.publish(name, hs, hs.logicalBytes()); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Host registers a hosted set built from elems: persisted as a full
// segment when hosting is enabled, and evictable under MaxResidentBytes —
// the deployment shape for servers carrying far more named sets than fit
// in memory. Re-hosting a name replaces its contents. Tenant quotas are
// checked before anything is written.
func (s *Server) Host(name string, elems []uint64) error {
	if s.hosted == nil {
		return s.hostedErr
	}
	if name == "" {
		return errors.New("pbs: Host with an empty set name")
	}
	old, hadOld := s.sets.Get(name)
	hs := s.hosted.host(name, elems)
	if err := s.publish(name, hs, hs.logicalBytes()); err != nil {
		return err
	}
	if hadOld {
		if ohs, ok := old.(*hostedSet); ok {
			s.hosted.forget(ohs)
		}
	}
	if err := hs.persist(); err != nil {
		s.Unregister(name)
		return err
	}
	return nil
}

// HostedUpdate applies adds and removes to a hosted set. The cumulative
// sketch, digest, and count are maintained incrementally on this write
// path, which is what lets the set answer difference estimates even after
// eviction; changes are persisted as a delta segment when the set is next
// evicted or the server shuts down. Growth is reserved against the
// tenant's byte quota before the set is touched.
func (s *Server) HostedUpdate(name string, add, remove []uint64) error {
	src, ok := s.sets.Get(name)
	if !ok {
		return fmt.Errorf("pbs: unknown set %q", name)
	}
	hs, isHosted := src.(*hostedSet)
	if !isHosted {
		return fmt.Errorf("pbs: set %q is not hosted", name)
	}
	if len(add) > 0 {
		// Worst-case reservation: every add is new. Settled to the actual
		// size below.
		if err := s.publish(name, src, hs.logicalBytes()+hostedElemBytes*int64(len(add))); err != nil {
			return err
		}
	}
	_, _, err := hs.update(add, remove)
	s.publish(name, src, hs.logicalBytes())
	if err != nil {
		return err
	}
	s.hosted.recharge(hs)
	// The update may have paged a cold set in; settle residency (and run
	// the eviction loop) — a no-op when it was already tracked.
	s.hosted.noteResident(hs)
	return nil
}
