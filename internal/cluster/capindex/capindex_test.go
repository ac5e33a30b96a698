package capindex

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"vmdeflate/internal/resources"
)

// refEntry mirrors one index entry in the flat reference model.
type refEntry struct {
	name string
	key  float64
}

// refModel is the brute-force oracle: a map kept in sync with the same
// upserts/deletes, queried by sorting.
type refModel map[string]float64

func (m refModel) sorted() []refEntry {
	out := make([]refEntry, 0, len(m))
	for n, k := range m {
		out = append(out, refEntry{n, k})
	}
	sort.Slice(out, func(i, j int) bool {
		return less(out[i].key, out[i].name, out[j].key, out[j].name)
	})
	return out
}

func collectFrom(ix *Index, lower float64) []refEntry {
	var out []refEntry
	ix.AscendFrom(lower, func(name string, key float64) bool {
		out = append(out, refEntry{name, key})
		return true
	})
	return out
}

func TestIndexBasics(t *testing.T) {
	ix := New()
	if ix.Len() != 0 {
		t.Fatalf("empty Len = %d", ix.Len())
	}
	if _, _, ok := ix.Min(); ok {
		t.Fatal("Min on empty index")
	}
	ix.Upsert("b", 0.5)
	ix.Upsert("a", 0.5)
	ix.Upsert("c", 0.2)
	if n, k, ok := ix.Min(); !ok || n != "c" || k != 0.2 {
		t.Fatalf("Min = %q %v %v", n, k, ok)
	}
	// Equal keys order by name.
	got := collectFrom(ix, 0)
	want := []refEntry{{"c", 0.2}, {"a", 0.5}, {"b", 0.5}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ascend = %v, want %v", got, want)
	}
	// Upsert moves a key; Delete removes.
	ix.Upsert("c", 0.9)
	if k, ok := ix.Key("c"); !ok || k != 0.9 {
		t.Fatalf("Key(c) = %v %v", k, ok)
	}
	ix.Delete("a")
	ix.Delete("ghost") // no-op
	got = collectFrom(ix, 0)
	want = []refEntry{{"b", 0.5}, {"c", 0.9}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after move/delete = %v, want %v", got, want)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestAscendFromLowerBound(t *testing.T) {
	ix := New()
	for i := 0; i < 100; i++ {
		ix.Upsert(fmt.Sprintf("s%03d", i), float64(i)/100)
	}
	got := collectFrom(ix, 0.95)
	if len(got) != 5 {
		t.Fatalf("entries >= 0.95: %d, want 5", len(got))
	}
	for i, e := range got {
		if e.name != fmt.Sprintf("s%03d", 95+i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	// Early stop.
	var visited int
	ix.AscendFrom(0.5, func(string, float64) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("visited = %d, want 3", visited)
	}
}

// TestIndexMatchesReferenceModel drives the treap with a seeded random
// op sequence and checks every query against the flat sorted oracle —
// the determinism contract the cluster differential suite builds on.
func TestIndexMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ix := New()
	ref := refModel{}
	for op := 0; op < 5000; op++ {
		name := fmt.Sprintf("node-%03d", rng.Intn(200))
		switch rng.Intn(10) {
		case 0: // delete
			ix.Delete(name)
			delete(ref, name)
		default: // upsert, with deliberate key collisions
			key := float64(rng.Intn(50)) / 50
			ix.Upsert(name, key)
			ref[name] = key
		}
		if ix.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, ref %d", op, ix.Len(), len(ref))
		}
		if op%50 != 0 {
			continue
		}
		lower := rng.Float64()
		got := collectFrom(ix, lower)
		var want []refEntry
		for _, e := range ref.sorted() {
			if e.key >= lower {
				want = append(want, e)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("op %d bound %v:\n got %v\nwant %v", op, lower, got, want)
		}
	}
}

// TestFirstFitting pins the per-index tightest-fit query: first entry
// in (key, name) order at or above the bound that passes the filter.
func TestFirstFitting(t *testing.T) {
	ix := New()
	ix.Upsert("a", 0.2)
	ix.Upsert("b", 0.4)
	ix.Upsert("c", 0.4)
	ix.Upsert("d", 0.9)
	fits := func(allowed ...string) func(string) bool {
		return func(n string) bool {
			for _, a := range allowed {
				if n == a {
					return true
				}
			}
			return false
		}
	}
	if n, k, ok := ix.FirstFitting(0, fits("b", "c", "d")); !ok || n != "b" || k != 0.4 {
		t.Fatalf("FirstFitting = %q %v %v, want b 0.4 true", n, k, ok)
	}
	// The bound prunes below; name breaks the 0.4 tie.
	if n, _, ok := ix.FirstFitting(0.41, fits("a", "b", "c", "d")); !ok || n != "d" {
		t.Fatalf("FirstFitting above bound = %q %v, want d", n, ok)
	}
	if _, _, ok := ix.FirstFitting(0, fits()); ok {
		t.Fatal("FirstFitting with nothing fitting should miss")
	}
}

// TestMinFitting pins the merged queries over disjoint indexes: the
// global (key, name) minimum across per-index answers, each with its own
// lower bound, equal to what one combined index would return — for the
// predicate form MinFitting and for the pruned MinFit alike.
func TestMinFitting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const parts = 3
	ixs := make([]*Index, parts)
	lowers := make([]float64, parts)
	for i := range ixs {
		ixs[i] = NewFit()
	}
	combined := NewFit()
	free := map[string]resources.Vector{}
	var names []string
	for i := 0; i < 90; i++ {
		name := fmt.Sprintf("node-%03d", i)
		key := float64(rng.Intn(20)) / 20 // deliberate cross-partition ties
		f := resources.CPUMem(float64(rng.Intn(6)), float64(rng.Intn(6)*1024))
		ixs[i%parts].Set(name, i, key, f)
		combined.Set(name, i, key, f)
		free[name] = f
		names = append(names, name)
	}
	for trial := 0; trial < 200; trial++ {
		lower := rng.Float64()
		for i := range lowers {
			lowers[i] = lower
		}
		size := resources.CPUMem(float64(rng.Intn(6)), float64(rng.Intn(6)*1024))
		fits := func(n string) bool { return size.FitsIn(free[n]) }
		gn, gk, gok := MinFitting(ixs, lowers, fits)
		wn, wk, wok := combined.FirstFitting(lower, fits)
		if gok != wok || gn != wn || gk != wk {
			t.Fatalf("trial %d: MinFitting = %q %v %v, combined = %q %v %v",
				trial, gn, gk, gok, wn, wk, wok)
		}
		ref, ok := MinFit(ixs, lowers, size)
		if ok != wok || (ok && names[ref] != wn) {
			t.Fatalf("trial %d: MinFit = %d %v, combined FirstFitting = %q %v", trial, ref, ok, wn, wok)
		}
	}
	// Nil indexes (a key no server has) are skipped.
	if _, _, ok := MinFitting([]*Index{nil, nil}, []float64{0, 0}, func(string) bool { return true }); ok {
		t.Fatal("MinFitting over nil indexes should miss")
	}
	if _, ok := MinFit([]*Index{nil, nil}, []float64{0, 0}, resources.Vector{}); ok {
		t.Fatal("MinFit over nil indexes should miss")
	}
}

// TestDescIterMatchesReference drives the descending iterator against
// the sorted oracle under churn — the bound-pruned pressure scan leans
// on Peek/Next realizing exactly the reverse (key, name) order.
func TestDescIterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ix := New()
	ref := refModel{}
	var it DescIter
	for op := 0; op < 3000; op++ {
		name := fmt.Sprintf("node-%03d", rng.Intn(150))
		switch rng.Intn(8) {
		case 0: // delete
			ix.Delete(name)
			delete(ref, name)
		default: // upsert with deliberate key collisions
			key := float64(rng.Intn(40)) / 40
			ix.Upsert(name, key)
			ref[name] = key
		}
		if op%37 != 0 {
			continue
		}
		it.Reset(ix)
		sorted := ref.sorted()
		for i := len(sorted) - 1; i >= 0; i-- {
			n, k, ok := it.Peek()
			if !ok || n != sorted[i].name || k != sorted[i].key {
				t.Fatalf("op %d pos %d: Peek = %q %v %v, want %q %v",
					op, len(sorted)-1-i, n, k, ok, sorted[i].name, sorted[i].key)
			}
			it.Next()
		}
		if _, _, ok := it.Peek(); ok {
			t.Fatalf("op %d: iterator not exhausted after %d entries", op, len(sorted))
		}
		it.Next() // Next past the end is a no-op, not a panic.
	}
}

// TestDescIterEmpty pins the empty-index edge.
func TestDescIterEmpty(t *testing.T) {
	var it DescIter
	it.Reset(New())
	if _, _, ok := it.Peek(); ok {
		t.Fatal("Peek on empty index should miss")
	}
	it.Next()
	if _, _, ok := it.Peek(); ok {
		t.Fatal("Peek after Next on empty index should miss")
	}
}

func TestDirtySet(t *testing.T) {
	s := NewDirtySet()
	if got := s.Drain(); got != nil {
		t.Fatalf("drain of empty set = %v", got)
	}
	s.Mark("b")
	s.Mark("a")
	s.Mark("b") // dedup
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Drain(); fmt.Sprint(got) != "[a b]" {
		t.Fatalf("drain = %v, want sorted [a b]", got)
	}
	if s.Len() != 0 {
		t.Fatal("drain should empty the set")
	}
}

// structEqual compares two treaps node by node — shape, priorities and,
// on the surplus family, free vectors and subtree maxima included.
func structEqual(a *Index, ta int32, b *Index, tb int32) bool {
	if ta == none || tb == none {
		return ta == tb
	}
	na, nb := a.nodes[ta], b.nodes[tb]
	if na.key != nb.key || a.names[ta] != b.names[tb] || na.prio != nb.prio || a.fit != b.fit {
		return false
	}
	if a.fit && (a.free[ta] != b.free[tb] || a.sub[ta] != b.sub[tb]) {
		return false
	}
	return structEqual(a, na.left, b, nb.left) && structEqual(a, na.right, b, nb.right)
}

// TestDeleteReinsertMatchesRebuilt is the canonical-shape property the
// revocation path leans on: because heap priorities derive from names
// and the BST order is (key, name), the treap's SHAPE — not just its
// in-order contents — is a pure function of the entry set, and so is
// every subtree maximum of the surplus family. Any delete/reinsert,
// key-move or free-only history (a server revoked and restored
// arbitrarily many times, its free vector changing under a fixed key)
// must therefore leave the index structurally identical to one rebuilt
// from scratch, so iteration cost and visit order can never drift with
// churn.
func TestDeleteReinsertMatchesRebuilt(t *testing.T) {
	type entry struct {
		key  float64
		free resources.Vector
	}
	rng := rand.New(rand.NewSource(17))
	ix := NewFit()
	model := map[string]entry{}
	sorted := func() []string {
		names := make([]string, 0, len(model))
		for n := range model {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			return less(model[names[i]].key, names[i], model[names[j]].key, names[j])
		})
		return names
	}
	for op := 0; op < 3000; op++ {
		name := fmt.Sprintf("node-%03d", rng.Intn(120))
		free := resources.CPUMem(float64(rng.Intn(8)), float64(rng.Intn(8)*512))
		switch rng.Intn(6) {
		case 0, 1: // delete (revocation)
			ix.Delete(name)
			delete(model, name)
		case 2: // free-only change at the entry's current key
			if e, ok := model[name]; ok {
				ix.Set(name, 0, e.key, free)
				model[name] = entry{e.key, free}
			}
		default: // set (restore / key move), with key and vector collisions
			key := float64(rng.Intn(40)) / 40
			ix.Set(name, 0, key, free)
			model[name] = entry{key, free}
		}
		if op%97 != 0 {
			continue
		}
		rebuilt := NewFit()
		// Insert in sorted order — any order must yield the same tree.
		for _, n := range sorted() {
			rebuilt.Set(n, 0, model[n].key, model[n].free)
		}
		if !structEqual(ix, ix.root, rebuilt, rebuilt.root) {
			t.Fatalf("op %d: churned treap diverged from rebuilt-from-scratch", op)
		}
	}
	// And once more with a reversed insertion order, to pin that the
	// shape is insertion-order independent.
	names := sorted()
	rev := NewFit()
	for i := len(names) - 1; i >= 0; i-- {
		rev.Set(names[i], 0, model[names[i]].key, model[names[i]].free)
	}
	if !structEqual(ix, ix.root, rev, rev.root) {
		t.Fatal("reverse-order rebuild diverged: treap shape depends on insertion order")
	}
}
