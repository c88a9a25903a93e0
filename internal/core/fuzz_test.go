package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// FuzzReadMap: arbitrary bytes must never panic or demand absurd
// allocations; valid parses round-trip.
func FuzzReadMap(f *testing.F) {
	var seed bytes.Buffer
	m, err := NewMap([][]uint32{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteMap(&seed, m); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("OSSMMAP1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadMap(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMap(&buf, got); err != nil {
			t.Fatalf("WriteMap of parsed map failed: %v", err)
		}
		re, err := ReadMap(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if re.NumItems() != got.NumItems() || re.NumSegments() != got.NumSegments() {
			t.Fatal("round trip changed shape")
		}
	})
}

// FuzzBoundKernels: on fuzzer-shaped random maps every decision kernel
// must agree bit-for-bit with the reference bound walk, for any itemset
// and threshold (the DESIGN.md §7 equivalence guarantee). Segment counts
// span 1..256, both sides of every width's small crossover. Each map is
// checked at the fuzzed threshold and at thresholds straddling every
// candidate's bound.
func FuzzBoundKernels(f *testing.F) {
	f.Add(uint8(4), uint8(3), int64(1), uint32(50))
	f.Add(uint8(40), uint8(6), int64(7), uint32(3))
	f.Add(uint8(17), uint8(2), int64(-9), uint32(0))
	f.Fuzz(boundKernelsProperty(false))
}

// FuzzBoundKernelsQuantized is FuzzBoundKernels with roughly a quarter
// of the cells in 65534..65537, straddling the uint16 ceiling the
// quantized lanes were once limited to, so large counts keep exercising
// the exact int64 accumulation on deep maps.
func FuzzBoundKernelsQuantized(f *testing.F) {
	f.Add(uint8(80), uint8(4), int64(3), uint32(100000))
	f.Add(uint8(40), uint8(6), int64(9), uint32(7))
	f.Add(uint8(200), uint8(2), int64(-5), uint32(1<<24))
	f.Fuzz(boundKernelsProperty(true))
}

// boundKernelsProperty is the shared body of the bound-kernel fuzzers;
// bigCells injects cells around 65535.
func boundKernelsProperty(bigCells bool) func(t *testing.T, segs, items uint8, seed int64, minsupRaw uint32) {
	return func(t *testing.T, segs, items uint8, seed int64, minsupRaw uint32) {
		ns := 1 + int(segs)
		k := 2 + int(items)%8
		r := rand.New(rand.NewSource(seed))
		rows := make([][]uint32, ns)
		for s := range rows {
			rows[s] = make([]uint32, k)
			for i := range rows[s] {
				if bigCells && r.Intn(4) == 0 {
					rows[s][i] = uint32(65534 + r.Intn(4))
				} else {
					rows[s][i] = uint32(r.Intn(300))
				}
			}
		}
		m, err := NewMap(rows)
		if err != nil {
			t.Fatal(err)
		}

		cands := make([]dataset.Itemset, 1+r.Intn(12))
		for i := range cands {
			cands[i] = randomItemsetOfLen(r, k, 1+r.Intn(k)) // every width kernel
		}
		bounds := m.UpperBoundBatch(cands, nil)
		for i, x := range cands {
			ref := m.referenceUpperBound(x)
			if m.UpperBound(x) != ref {
				t.Fatalf("UpperBound(%v) ≠ reference %d", x, ref)
			}
			if bounds[i] != ref {
				t.Fatalf("UpperBoundBatch[%d] = %d ≠ reference %d", i, bounds[i], ref)
			}
		}
		minsups := []int64{int64(minsupRaw) % (65537*int64(ns) + 2)}
		for _, b := range bounds {
			minsups = append(minsups, b, b+1)
		}
		prefix := randomNonEmptyItemset(r, k)
		var exts []dataset.Item
		for it := dataset.Item(0); int(it) < k; it++ {
			if !prefix.Contains(it) {
				exts = append(exts, it)
			}
		}
		items2 := make([]dataset.Item, k)
		for i := range items2 {
			items2[i] = dataset.Item(i)
		}
		for _, minsup := range minsups {
			dec := make([]bool, len(cands))
			m.BoundBatch(cands, minsup, dec)
			for i, x := range cands {
				want := bounds[i] >= minsup
				if got := m.BoundAtLeast(x, minsup); got != want {
					t.Fatalf("BoundAtLeast(%v, %d) = %v, reference %d", x, minsup, got, bounds[i])
				}
				if dec[i] != want {
					t.Fatalf("BoundBatch[%d] = %v for %v at %d, reference %d", i, dec[i], x, minsup, bounds[i])
				}
			}

			pairDec := make([]bool, k*(k-1)/2)
			m.BoundPairsAmong(items2, minsup, pairDec)
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					ref := m.referenceUpperBound(dataset.Itemset{items2[i], items2[j]})
					if got := pairDec[PairIndex(i, j, k)]; got != (ref >= minsup) {
						t.Fatalf("BoundPairsAmong pair (%d,%d) = %v at %d, reference %d", i, j, got, minsup, ref)
					}
				}
			}

			if len(exts) > 0 {
				extDec := make([]bool, len(exts))
				m.BoundExtensions(prefix, exts, minsup, extDec)
				for e, it := range exts {
					cand := dataset.NewItemset(append(append([]dataset.Item{}, prefix...), it)...)
					ref := m.referenceUpperBound(cand)
					if extDec[e] != (ref >= minsup) {
						t.Fatalf("BoundExtensions(%v + %d) = %v at %d, reference %d", prefix, it, extDec[e], minsup, ref)
					}
				}
			}
		}
	}
}
