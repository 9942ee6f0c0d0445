package trace

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func internTestTrace() Trace {
	var tr Trace
	for r := 0; r < 4; r++ {
		for i := 0; i < 50; i++ {
			tr = append(tr, MakeBranch(uint32(r), i%7, i%2 == 0))
		}
	}
	return tr
}

func TestInternRoundTrip(t *testing.T) {
	tr := internTestTrace()
	in := Intern(tr)
	if in.Len() != len(tr) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(tr))
	}
	if got, want := in.Cardinality(), tr.DistinctElements(); got != want {
		t.Fatalf("Cardinality = %d, want %d", got, want)
	}
	back := in.Reconstruct()
	for i := range tr {
		if back[i] != tr[i] {
			t.Fatalf("element %d: reconstructed %v, want %v", i, back[i], tr[i])
		}
	}
}

func TestInternIDsAssignedInFirstAppearanceOrder(t *testing.T) {
	tr := Trace{MakeBranch(1, 0, false), MakeBranch(2, 0, false), MakeBranch(1, 0, false), MakeBranch(3, 0, false)}
	in := Intern(tr)
	want := []int32{0, 1, 0, 2}
	for i, id := range in.IDs() {
		if id != want[i] {
			t.Fatalf("IDs = %v, want %v", in.IDs(), want)
		}
	}
	for id, sym := range in.Symbols() {
		got, ok := in.ID(sym)
		if !ok || got != int32(id) {
			t.Fatalf("ID(%v) = %d, %v; want %d, true", sym, got, ok, id)
		}
	}
	if _, ok := in.ID(MakeBranch(9, 9, true)); ok {
		t.Fatal("ID reported an element absent from the stream")
	}
}

func TestInternScannerMatchesIntern(t *testing.T) {
	tr := internTestTrace()
	var buf bytes.Buffer
	w := NewBranchWriter(&buf)
	for _, e := range tr {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := InternScanner(NewBranchScanner(&buf))
	if err != nil {
		t.Fatal(err)
	}
	want := Intern(tr)
	if got.Len() != want.Len() || got.Cardinality() != want.Cardinality() {
		t.Fatalf("scanner interning diverges: %d/%d vs %d/%d",
			got.Len(), got.Cardinality(), want.Len(), want.Cardinality())
	}
	for i, id := range got.IDs() {
		if id != want.IDs()[i] {
			t.Fatalf("ID stream diverges at %d", i)
		}
	}
}

// checkAgainstMap feeds keys to an InternedBuilder and to a map
// reference and requires them to agree on every ID, on Symbols and
// Cardinality, and on ID for every key and for absent keys.
func checkAgainstMap(t *testing.T, name string, keys, absent []Branch) *InternedBuilder {
	t.Helper()
	b := NewInternedBuilder(0)
	ref := map[Branch]int32{}
	var refSyms []Branch
	for i, k := range keys {
		want, ok := ref[k]
		if !ok {
			want = int32(len(refSyms))
			ref[k] = want
			refSyms = append(refSyms, k)
		}
		if got := b.Intern(k); got != want {
			t.Fatalf("%s: key %d (%#x): Intern = %d, want %d", name, i, uint64(k), got, want)
		}
	}
	if b.Cardinality() != len(refSyms) {
		t.Fatalf("%s: Cardinality = %d, want %d", name, b.Cardinality(), len(refSyms))
	}
	for id, sym := range b.Symbols() {
		if sym != refSyms[id] {
			t.Fatalf("%s: Symbols[%d] = %#x, want %#x", name, id, uint64(sym), uint64(refSyms[id]))
		}
	}
	for k, want := range ref {
		if got, ok := b.ID(k); !ok || got != want {
			t.Fatalf("%s: ID(%#x) = %d, %v; want %d, true", name, uint64(k), got, ok, want)
		}
	}
	for _, k := range absent {
		if _, in := ref[k]; in {
			continue
		}
		if id, ok := b.ID(k); ok {
			t.Fatalf("%s: ID(%#x) = %d for an absent key", name, uint64(k), id)
		}
	}
	return b
}

// fixedMult is a multiplier a table without a per-table seed might fix
// (2^64 over the golden ratio, rounded odd).
const fixedMult = 0x9E3779B97F4A7C15

// collidingKeys returns n keys that all hash to slot 0 under fixedMult
// at every capacity up to 2^40: it runs symtab's hash backwards from
// final products below 2^24, whose top bits — the slot index — are zero.
func collidingKeys(n int) []Branch {
	inv := uint64(fixedMult) // Newton's iteration for the inverse mod 2^64
	for i := 0; i < 5; i++ {
		inv *= 2 - fixedMult*inv
	}
	keys := make([]Branch, n)
	for i := range keys {
		h := uint64(i+1) * inv // undo the second multiply
		h ^= h>>29 ^ h>>58     // undo h ^= h >> 29
		h *= inv               // undo the first multiply
		h ^= h >> 32           // undo h ^= h >> 32
		keys[i] = Branch(h)
	}
	return keys
}

// longestRun returns the longest run of occupied slots in the table:
// the worst probe sequence a lookup can walk.
func longestRun(t *symtab) int {
	longest, run := 0, 0
	for _, s := range append(t.slots, t.slots...) { // runs wrap around
		if s.id1 == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	return min(longest, len(t.slots))
}

// TestSymtabMatchesMap checks the flat symbol table against a Go map on
// random keys, on keys crafted to collide under a fixed multiplier, and
// on keys that differ only in their method bits, repeating each stream
// so hits are checked as well as misses.
func TestSymtabMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	random := make([]Branch, 5000)
	for i := range random {
		random[i] = Branch(rng.Uint64())
	}
	methods := make([]Branch, 5000)
	for i := range methods {
		methods[i] = MakeBranch(uint32(i), 42, true)
	}
	colliding := collidingKeys(5000)
	absent := make([]Branch, 1000)
	for i := range absent {
		absent[i] = Branch(rng.Uint64())
	}
	absent = append(absent, collidingKeys(6000)[5000:]...)
	absent = append(absent, MakeBranch(3, 42, true), MakeBranch(1, 43, true), 0)

	for _, tc := range []struct {
		name string
		keys []Branch
	}{
		{"random", random},
		{"method-bits", methods},
		{"colliding", colliding},
	} {
		// Each stream twice, the second time in a shuffled order, plus a
		// run of repeats of its first key.
		keys := append([]Branch(nil), tc.keys...)
		again := append([]Branch(nil), tc.keys...)
		rng.Shuffle(len(again), func(i, j int) { again[i], again[j] = again[j], again[i] })
		keys = append(keys, again...)
		for i := 0; i < 100; i++ {
			keys = append(keys, tc.keys[0])
		}
		b := checkAgainstMap(t, tc.name, keys, absent)
		if b.in.index.n*2 > len(b.in.index.slots) {
			t.Errorf("%s: table over half full: %d keys in %d slots", tc.name, b.in.index.n, len(b.in.index.slots))
		}
		// The same checks hold for the built stream.
		in := b.Build()
		for id, sym := range in.Symbols() {
			if got, ok := in.ID(sym); !ok || got != int32(id) {
				t.Fatalf("%s: built ID(%#x) = %d, %v; want %d", tc.name, uint64(sym), got, ok, id)
			}
		}
	}
}

// TestSymtabSeedDefeatsCraftedKeys checks that keys crafted to share one
// slot under a fixed multiplier, and keys that differ only in their
// method bits, do not pile into long probe runs under the table's own
// random multiplier. With the fixed multiplier the crafted keys form a
// single 5000-slot cluster.
func TestSymtabSeedDefeatsCraftedKeys(t *testing.T) {
	keys := collidingKeys(5000)
	fixed := newSymtab()
	fixed.mult = fixedMult
	var syms []Branch
	for _, k := range keys {
		fixed.intern(k, &syms)
	}
	if run := longestRun(&fixed); run != len(keys) {
		t.Fatalf("crafted keys under the fixed multiplier: longest run %d, want %d (the keys are not adversarial)", run, len(keys))
	}
	methods := make([]Branch, 5000)
	for i := range methods {
		methods[i] = MakeBranch(uint32(i), 0, false)
	}
	for _, tc := range []struct {
		name string
		keys []Branch
	}{{"crafted", keys}, {"method-bits", methods}} {
		// A table at most half full under a random-looking hash has runs
		// of a few dozen slots at worst (under 35 in 3000 seeds of each
		// stream); 200 leaves a wide margin and is still far from the
		// 5000-slot cluster.
		for seed := 0; seed < 20; seed++ {
			b := NewInternedBuilder(0)
			for _, k := range tc.keys {
				b.Intern(k)
			}
			if run := longestRun(&b.in.index); run > 200 {
				t.Fatalf("%s keys: longest run %d slots of %d (multiplier %#x)", tc.name, run, len(b.in.index.slots), b.in.index.mult)
			}
		}
	}
}
