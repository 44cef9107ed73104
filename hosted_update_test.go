package pbs

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"pbs/internal/msethash"
	"pbs/internal/setstore"
)

// mapRebuildState is the hosted write-path state the reference update
// below mutates: the element list, the cumulative metadata and the dirty
// sets since the last persisted segment.
type mapRebuildState struct {
	elems     []uint64
	meta      setstore.Meta
	dirtyAdds map[uint64]struct{}
	dirtyDels map[uint64]struct{}
}

// mapRebuildUpdate is the original hostedSet.update: rebuild a map of the
// whole set, apply adds then removes, and re-sort. The merge-based update
// must match it exactly.
func mapRebuildUpdate(h *hostedStore, st *mapRebuildState, add, remove []uint64) (added, removed int) {
	set := make(map[uint64]struct{}, len(st.elems)+len(add))
	for _, e := range st.elems {
		set[e] = struct{}{}
	}
	if st.dirtyAdds == nil {
		st.dirtyAdds = make(map[uint64]struct{})
		st.dirtyDels = make(map[uint64]struct{})
	}
	d, _ := msethash.DigestFromBytes(st.meta.Digest)
	mh := msethash.FromDigest(h.opt.Seed^verifySeedTweak, d)
	for _, x := range add {
		if _, ok := set[x]; ok {
			continue
		}
		set[x] = struct{}{}
		h.tow.Add(st.meta.Sketch, x)
		mh.Add(x)
		added++
		if _, wasDel := st.dirtyDels[x]; wasDel {
			delete(st.dirtyDels, x)
		} else {
			st.dirtyAdds[x] = struct{}{}
		}
	}
	for _, x := range remove {
		if _, ok := set[x]; !ok {
			continue
		}
		delete(set, x)
		h.tow.Remove(st.meta.Sketch, x)
		mh.Remove(x)
		removed++
		if _, wasAdd := st.dirtyAdds[x]; wasAdd {
			delete(st.dirtyAdds, x)
		} else {
			st.dirtyDels[x] = struct{}{}
		}
	}
	if added == 0 && removed == 0 {
		return 0, 0
	}
	sum := mh.Sum()
	st.meta.Digest = sum.Bytes()
	st.meta.Count = uint64(len(set))
	st.elems = slices.Sorted(maps.Keys(set))
	return added, removed
}

type hostedStep struct{ add, remove []uint64 }

// TestHostedUpdateMatchesMapRebuild pins the merge-based HostedUpdate
// write path to the map-rebuild one it replaced: duplicate inputs, an
// element in both lists (adds apply first), re-adds that undo earlier
// dirty removals, no-op calls, and a randomized churn.
func TestHostedUpdateMatchesMapRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var random []hostedStep
	for i := 0; i < 200; i++ {
		var s hostedStep
		for j := rng.Intn(6); j > 0; j-- {
			s.add = append(s.add, uint64(1+rng.Intn(40)))
		}
		for j := rng.Intn(6); j > 0; j-- {
			s.remove = append(s.remove, uint64(1+rng.Intn(40)))
		}
		random = append(random, s)
	}
	cases := []struct {
		name  string
		base  []uint64
		steps []hostedStep
	}{
		{"plain", []uint64{2, 4, 6}, []hostedStep{{[]uint64{1, 3}, []uint64{4}}}},
		{"duplicate inputs", []uint64{2, 4, 6}, []hostedStep{{[]uint64{3, 1, 3, 1}, []uint64{4, 6, 4}}}},
		{"new element in both lists", []uint64{2, 4}, []hostedStep{{[]uint64{5}, []uint64{5}}}},
		{"present element in both lists", []uint64{2, 4}, []hostedStep{{[]uint64{4}, []uint64{4, 4}}}},
		{"no-op", []uint64{2, 4}, []hostedStep{{[]uint64{2, 4}, []uint64{9}}, {nil, nil}}},
		{"from empty", []uint64{}, []hostedStep{{[]uint64{9, 3, 1}, []uint64{1}}}},
		{"remove everything", []uint64{1, 2, 3}, []hostedStep{{nil, []uint64{3, 2, 1, 2}}}},
		{"undo dirty changes", []uint64{10, 20, 30}, []hostedStep{
			{[]uint64{15}, []uint64{20}},
			{[]uint64{20}, []uint64{15}},
			{[]uint64{15, 25}, []uint64{10, 25}},
			{[]uint64{10}, nil},
		}},
		{"random churn", []uint64{5, 10, 15, 20, 25, 30, 35, 40}, random},
	}
	opt := (&Options{Seed: 11}).withDefaults()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := newHostedStore(opt, 0)
			if err != nil {
				t.Fatal(err)
			}
			hs := h.host(tc.name, tc.base)
			ref := mapRebuildState{elems: slices.Clone(hs.elems), meta: hs.meta}
			ref.meta.Sketch = slices.Clone(hs.meta.Sketch)
			for i, s := range tc.steps {
				wantAdded, wantRemoved := mapRebuildUpdate(h, &ref, s.add, s.remove)
				added, removed, err := hs.update(s.add, s.remove)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case added != wantAdded || removed != wantRemoved:
					t.Fatalf("step %d: added/removed %d/%d, want %d/%d", i, added, removed, wantAdded, wantRemoved)
				case !slices.Equal(hs.elems, ref.elems):
					t.Fatalf("step %d: elements %v, want %v", i, hs.elems, ref.elems)
				case hs.meta.Count != ref.meta.Count:
					t.Fatalf("step %d: count %d, want %d", i, hs.meta.Count, ref.meta.Count)
				case !slices.Equal(hs.meta.Sketch, ref.meta.Sketch):
					t.Fatalf("step %d: sketch diverged", i)
				case !slices.Equal(hs.meta.Digest, ref.meta.Digest):
					t.Fatalf("step %d: digest diverged", i)
				case !maps.Equal(hs.dirtyAdds, ref.dirtyAdds) || !maps.Equal(hs.dirtyDels, ref.dirtyDels):
					t.Fatalf("step %d: dirty adds/dels %v/%v, want %v/%v", i, hs.dirtyAdds, hs.dirtyDels, ref.dirtyAdds, ref.dirtyDels)
				}
			}
		})
	}
}
