package capindex

import (
	"fmt"
	"math/rand"
	"testing"

	"vmdeflate/internal/resources"
)

// height returns the number of edges on the longest root-to-leaf path
// below t (-1 for an empty tree).
func height(ix *Index, t int32) int {
	if t == none {
		return -1
	}
	return 1 + max(height(ix, ix.nodes[t].left), height(ix, ix.nodes[t].right))
}

// checkSub verifies every subtree maximum below t against a fresh
// component-wise max of the subtree's free vectors, returning that max.
func checkSub(t *testing.T, ix *Index, n int32) resources.Vector {
	t.Helper()
	m := ix.free[n]
	if l := ix.nodes[n].left; l != none {
		m = m.Max(checkSub(t, ix, l))
	}
	if r := ix.nodes[n].right; r != none {
		m = m.Max(checkSub(t, ix, r))
	}
	if m != ix.sub[n] {
		t.Fatalf("%s: subtree max %v, fresh max %v", ix.names[n], ix.sub[n], m)
	}
	return m
}

// walkFits runs the predicate walk with size.FitsIn over free, returning
// its answer, its fits calls and its node touches.
func walkFits(ix *Index, lower float64, size resources.Vector, free map[string]resources.Vector) (name string, ok bool, calls, touches int) {
	t0 := ix.touches
	name, _, ok = ix.FirstFitting(lower, func(n string) bool {
		calls++
		return size.FitsIn(free[n])
	})
	return name, ok, calls, ix.touches - t0
}

// firstFitName runs FirstFit and maps its ref back to a name (refs
// index names), returning the touches it cost.
func firstFitName(ix *Index, lower float64, size resources.Vector, names []string) (name string, ok bool, touches int) {
	t0 := ix.touches
	ref, ok := ix.FirstFit(lower, size)
	if ok {
		name = names[ref]
	}
	return name, ok, ix.touches - t0
}

func TestFirstFitBasics(t *testing.T) {
	ix := NewFit()
	if _, ok := ix.FirstFit(0, resources.CPUMem(1, 1)); ok {
		t.Fatal("FirstFit on empty index")
	}
	ix.Set("a", 0, 0.2, resources.CPUMem(1, 100))
	ix.Set("b", 1, 0.4, resources.CPUMem(4, 100))
	ix.Set("c", 2, 0.4, resources.CPUMem(4, 400))
	ix.Set("d", 3, 0.9, resources.CPUMem(8, 800))
	cases := []struct {
		lower float64
		size  resources.Vector
		ref   int
		ok    bool
	}{
		{0, resources.CPUMem(1, 50), 0, true},
		{0, resources.CPUMem(2, 50), 1, true},  // name breaks the 0.4 tie
		{0, resources.CPUMem(2, 300), 2, true}, // b is memory-short
		{0.5, resources.CPUMem(1, 1), 3, true}, // the bound prunes below
		{0, resources.CPUMem(9, 1), -1, false}, // root maximum alone says no
	}
	for _, c := range cases {
		ref, ok := ix.FirstFit(c.lower, c.size)
		if ref != c.ref || ok != c.ok {
			t.Errorf("FirstFit(%v, %v) = %d %v, want %d %v", c.lower, c.size, ref, ok, c.ref, c.ok)
		}
	}
	// A free-only change re-derives the maxima; a delete drops the entry.
	ix.Set("d", 3, 0.9, resources.CPUMem(1, 1))
	if _, ok := ix.FirstFit(0, resources.CPUMem(5, 1)); ok {
		t.Error("FirstFit found a fit after the only large server shrank")
	}
	ix.Delete("a")
	if ref, _ := ix.FirstFit(0, resources.CPUMem(1, 50)); ref != 1 {
		t.Errorf("after delete FirstFit = %d, want 1", ref)
	}
	// Upsert moves the key and keeps ref and free vector.
	ix.Upsert("c", 0.1)
	if ref, _ := ix.FirstFit(0, resources.CPUMem(2, 300)); ref != 2 {
		t.Errorf("after Upsert FirstFit = %d, want 2", ref)
	}
	if k, ok := ix.Key("c"); !ok || k != 0.1 {
		t.Errorf("after Upsert Key(c) = %v %v, want 0.1", k, ok)
	}
	checkSub(t, ix, ix.root)
}

// TestFirstFitWorkMemoryFull bounds the pruned descent exactly on the
// case it exists for: 4096 servers, every one at or above the
// demand-share bound memory-full except one, which sits at the top of
// the key order. The predicate walk tests at least half the fleet; the
// descent touches at most two nodes per level of the treap.
func TestFirstFitWorkMemoryFull(t *testing.T) {
	const S = 4096
	capacity := resources.CPUMem(64, 256*1024)
	size := resources.CPUMem(1, 1024)
	lower := size.DominantShare(capacity) - 1e-7
	ix := NewFit()
	free := map[string]resources.Vector{}
	names := make([]string, S)
	for i := 0; i < S; i++ {
		names[i] = fmt.Sprintf("srv-%05d", i)
		var f resources.Vector
		switch {
		case i == S/2:
			f = capacity // the one server that fits
		case i < S/8:
			f = resources.CPUMem(0.5, 0) // below the bound
		default:
			f = resources.CPUMem(float64(2+i%62), 0) // memory-full
		}
		free[names[i]] = f
		ix.Set(names[i], i, f.DominantShare(capacity), f)
	}
	h := height(ix, ix.root)
	if limit := 3 * 12; h > limit { // 3·⌈log2 4096⌉
		t.Fatalf("treap height %d exceeds 3·log2 S = %d", h, limit)
	}
	got, ok, touches := firstFitName(ix, lower, size, names)
	want, wok, calls, _ := walkFits(ix, lower, size, free)
	if !ok || !wok || got != want || got != names[S/2] {
		t.Fatalf("FirstFit = %q %v, FirstFitting = %q %v, want %q", got, ok, want, wok, names[S/2])
	}
	if calls < S/2 {
		t.Errorf("predicate walk made %d fits calls, want >= %d", calls, S/2)
	}
	if touches > 2*(h+1) {
		t.Errorf("FirstFit touched %d nodes, want <= 2·(h+1) = %d (h = %d)", touches, 2*(h+1), h)
	}
	t.Logf("S=%d h=%d: FirstFit touched %d nodes, predicate walk made %d fits calls", S, h, touches, calls)
}

// TestFirstFitWorkAntiCorrelated pins the case pruning cannot help:
// CPU-rich and memory-rich servers alternate in key order, so every
// subtree maximum holds a demand that needs both and no single server
// does. The descent still agrees with the predicate walk and never
// touches more nodes than it — no O(log S) claim here.
func TestFirstFitWorkAntiCorrelated(t *testing.T) {
	const S = 4096
	capacity := resources.CPUMem(64, 256*1024)
	ix := NewFit()
	free := map[string]resources.Vector{}
	names := make([]string, S)
	for i := 0; i < S; i++ {
		names[i] = fmt.Sprintf("srv-%05d", i)
		share := 0.05 + 0.9*float64(i)/S
		f := resources.CPUMem(share*64, 0)
		if i%2 == 1 {
			f = resources.CPUMem(0, share*256*1024)
		}
		free[names[i]] = f
		ix.Set(names[i], i, share, f)
	}
	for _, size := range []resources.Vector{
		resources.CPUMem(1, 1024),  // fits nowhere
		resources.CPUMem(40, 0),    // CPU-rich half only
		resources.CPUMem(0, 1<<17), // memory-rich half only
	} {
		lower := size.DominantShare(capacity) - 1e-7
		got, ok, touches := firstFitName(ix, lower, size, names)
		want, wok, calls, walked := walkFits(ix, lower, size, free)
		if ok != wok || got != want {
			t.Fatalf("size %v: FirstFit = %q %v, FirstFitting = %q %v", size, got, ok, want, wok)
		}
		if touches > walked {
			t.Errorf("size %v: FirstFit touched %d nodes, predicate walk %d", size, touches, walked)
		}
		t.Logf("size %v: FirstFit touched %d nodes, predicate walk touched %d (%d fits calls)", size, touches, walked, calls)
	}
}

// FuzzIndex drives a surplus index with byte-decoded Set, Delete,
// key-move (Upsert) and free-only ops over a small name universe with
// deliberate key and vector ties, and after every op checks the index
// against a map oracle: FirstFit equals the brute-force (key, name)
// minimum over key >= lower ∧ FitsIn(free) and the predicate walk's
// answer, never touches more nodes than that walk, and every subtree
// maximum equals a fresh one.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 5, 2, 7, 9, 0, 1, 3, 4, 6})
	f.Add([]byte{1, 0, 0, 5, 0, 0, 9, 0, 0, 2, 1, 1, 3, 4, 2, 0, 1, 2})
	f.Add([]byte{1, 1, 15, 5, 2, 5, 9, 3, 10, 3, 0, 0, 7, 0, 0, 11, 0, 0}) // three entries, then every free vector shrinks in place
	for i := 0; i < 32; i++ {
		f.Add([]byte{byte(i*4 + 1), byte(i), byte(i * 7), byte(i*12 + 1), byte(i * 3), byte(i * 5), byte(i * 9), byte(i), 0})
	}
	type entry struct {
		key  float64
		free resources.Vector
	}
	vec := func(b byte) resources.Vector {
		return resources.CPUMem(float64(b&3), float64(b>>2&3)*1024)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		ix := NewFit()
		model := map[string]entry{}
		var names [8]string
		for i := range names {
			names[i] = fmt.Sprintf("s%d", i)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			ref := int(ops[i] >> 2 & 7)
			name := names[ref]
			key := float64(ops[i+1]%5) / 4
			free := vec(ops[i+2])
			switch ops[i] & 3 {
			case 0:
				ix.Delete(name)
				delete(model, name)
			case 1:
				ix.Set(name, ref, key, free)
				model[name] = entry{key, free}
			case 2: // key move keeping the free vector
				if e, ok := model[name]; ok {
					ix.Upsert(name, key)
					model[name] = entry{key, e.free}
				}
			case 3: // free-only change at the current key
				if e, ok := model[name]; ok {
					ix.Set(name, ref, e.key, free)
					model[name] = entry{e.key, free}
				}
			}
			if ix.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, want %d", i/3, ix.Len(), len(model))
			}
			if ix.root != none {
				checkSub(t, ix, ix.root)
			}
			size := vec(ops[i+2] >> 4)
			lower := float64(ops[i+1]>>4%5)/4 - 1e-9
			var want string
			for n, e := range model {
				if e.key >= lower && size.FitsIn(e.free) &&
					(want == "" || less(e.key, n, model[want].key, want)) {
					want = n
				}
			}
			got, ok, touches := firstFitName(ix, lower, size, names[:])
			if ok != (want != "") || got != want {
				t.Fatalf("op %d: FirstFit(%v, %v) = %q %v, brute force %q", i/3, lower, size, got, ok, want)
			}
			frees := map[string]resources.Vector{}
			for n, e := range model {
				frees[n] = e.free
			}
			pn, pok, _, walked := walkFits(ix, lower, size, frees)
			if pok != ok || pn != got {
				t.Fatalf("op %d: FirstFit = %q %v, FirstFitting = %q %v", i/3, got, ok, pn, pok)
			}
			if touches > walked {
				t.Fatalf("op %d: FirstFit touched %d nodes, predicate walk %d", i/3, touches, walked)
			}
		}
	})
}

// benchFleet builds a 4096-entry surplus index over a mixed fleet:
// free vectors and dominant-share keys drawn from one seeded source.
func benchFleet() (ix *Index, names []string, keys []float64, frees []resources.Vector) {
	const servers = 4096
	capacity := resources.CPUMem(64, 256*1024)
	rng := rand.New(rand.NewSource(1))
	ix = NewFit()
	names = make([]string, servers)
	keys = make([]float64, servers)
	frees = make([]resources.Vector, servers)
	for i := range names {
		names[i] = fmt.Sprintf("srv-%05d", i)
		frees[i] = resources.CPUMem(rng.Float64()*64, rng.Float64()*256*1024)
		keys[i] = frees[i].DominantShare(capacity)
		ix.Set(names[i], i, keys[i], frees[i])
	}
	return ix, names, keys, frees
}

// BenchmarkIndexSet is the steady-state refresh of a wide surplus
// index: alternating key moves and free-only changes at an unchanged
// key. Slots are reused, so it must allocate nothing.
func BenchmarkIndexSet(b *testing.B) {
	ix, names, keys, frees := benchFleet()
	shrunk := make([]resources.Vector, len(frees))
	for i, f := range frees {
		shrunk[i] = f.Scale(0.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Round 0 moves every entry to half its key, then shrinks its
		// free vector there; round 1 moves it back, then restores it.
		j := (i / 2) % len(names)
		key, before, after := keys[j]*0.5, frees[j], shrunk[j]
		if (i/2/len(names))%2 == 1 {
			key, before, after = keys[j], shrunk[j], frees[j]
		}
		if i%2 == 0 {
			ix.Set(names[j], j, key, before) // key move
		} else {
			ix.Set(names[j], j, key, after) // free-only change
		}
	}
}

// BenchmarkFirstFit is the surplus query on a wide mixed fleet at a
// spread of demand sizes. It must allocate nothing.
func BenchmarkFirstFit(b *testing.B) {
	ix, _, _, _ := benchFleet()
	capacity := resources.CPUMem(64, 256*1024)
	sizes := make([]resources.Vector, 64)
	lowers := make([]float64, len(sizes))
	rng := rand.New(rand.NewSource(2))
	for i := range sizes {
		sizes[i] = resources.CPUMem(1+rng.Float64()*31, 1024+rng.Float64()*127*1024)
		lowers[i] = sizes[i].DominantShare(capacity) - 1e-7
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(sizes)
		ix.FirstFit(lowers[j], sizes[j])
	}
}
