package core

import (
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// The kernel contract (DESIGN.md §7): every decision kernel and every
// batch kernel agrees bit-for-bit with the pre-flat-store reference walk
// referenceUpperBound. The tests below check that contract on randomized
// maps, itemsets and thresholds, and across all five segmentation
// algorithms.

// checkKernelsAgainstReference drives every kernel over random queries
// against m and fails the test on the first disagreement with the
// reference oracle.
func checkKernelsAgainstReference(t *testing.T, r *rand.Rand, m *Map, trials int) {
	t.Helper()
	k := m.NumItems()
	maxT := int64(1)
	for _, tot := range m.Totals() {
		if tot > maxT {
			maxT = tot
		}
	}

	// Scalar paths: UpperBound, UpperBoundPair, BoundAtLeast (whose
	// pairs run the pair kernel the Apriori/DHP pass-2 path uses).
	for trial := 0; trial < trials; trial++ {
		x := randomNonEmptyItemset(r, k)
		ref := m.referenceUpperBound(x)
		if got := m.UpperBound(x); got != ref {
			t.Fatalf("UpperBound(%v) = %d, reference %d", x, got, ref)
		}
		if len(x) == 2 {
			if got := m.UpperBoundPair(x[0], x[1]); got != ref {
				t.Fatalf("UpperBoundPair(%v) = %d, reference %d", x, got, ref)
			}
		}
		// Thresholds straddling the bound, plus random ones.
		for _, minsup := range []int64{0, 1, ref - 1, ref, ref + 1, 1 + r.Int63n(maxT+1)} {
			if got, want := m.BoundAtLeast(x, minsup), ref >= minsup; got != want {
				t.Fatalf("BoundAtLeast(%v, %d) = %v, reference bound %d", x, minsup, got, ref)
			}
		}
	}

	// Batch paths: one generation of random candidates per threshold.
	// Even trials force a uniform itemset length (up to 5, so the
	// general-k kernel is exercised past the pair/triple kernels), odd
	// trials mix lengths.
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(40)
		cands := make([]dataset.Itemset, n)
		uniform := 0
		if trial%2 == 0 {
			uniform = 1 + r.Intn(minInt(5, k))
		}
		for i := range cands {
			if uniform > 0 {
				cands[i] = randomItemsetOfLen(r, k, uniform)
			} else {
				cands[i] = randomNonEmptyItemset(r, k)
			}
		}
		minsup := 1 + r.Int63n(maxT+1)
		dec := make([]bool, n)
		st := m.BoundBatch(cands, minsup, dec)
		if st.EarlyExit+st.Abandoned > int64(n) {
			t.Fatalf("BoundBatch shortcut counts %+v exceed %d candidates", st, n)
		}
		bounds := m.UpperBoundBatch(cands, nil)
		for i, x := range cands {
			ref := m.referenceUpperBound(x)
			if bounds[i] != ref {
				t.Fatalf("UpperBoundBatch[%d] = %d for %v, reference %d", i, bounds[i], x, ref)
			}
			if dec[i] != (ref >= minsup) {
				t.Fatalf("BoundBatch[%d] = %v for %v at %d, reference bound %d", i, dec[i], x, minsup, ref)
			}
		}
	}

	// Pair kernel: all 2-subsets of the item domain.
	items := make([]dataset.Item, k)
	for i := range items {
		items[i] = dataset.Item(i)
	}
	numPairs := k * (k - 1) / 2
	pairDec := make([]bool, numPairs)
	for trial := 0; trial < trials; trial++ {
		minsup := 1 + r.Int63n(maxT+1)
		st := m.BoundPairsAmong(items, minsup, pairDec)
		if st.EarlyExit+st.Abandoned > int64(numPairs) {
			t.Fatalf("BoundPairsAmong shortcut counts %+v exceed %d pairs", st, numPairs)
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				ref := m.referenceUpperBound(dataset.Itemset{items[i], items[j]})
				if got := pairDec[PairIndex(i, j, k)]; got != (ref >= minsup) {
					t.Fatalf("BoundPairsAmong pair (%d,%d) = %v at %d, reference bound %d", i, j, got, minsup, ref)
				}
			}
		}
	}

	// Extension kernel: shared prefix, the depth-first miners' shape.
	for trial := 0; trial < trials; trial++ {
		prefix := dataset.Itemset{}
		if r.Intn(4) > 0 {
			prefix = randomNonEmptyItemset(r, k)
		}
		var exts []dataset.Item
		for it := dataset.Item(0); int(it) < k; it++ {
			if !prefix.Contains(it) && r.Intn(2) == 0 {
				exts = append(exts, it)
			}
		}
		if len(exts) == 0 {
			continue
		}
		minsup := 1 + r.Int63n(maxT+1)
		extDec := make([]bool, len(exts))
		extSt := m.BoundExtensions(prefix, exts, minsup, extDec)
		if extSt.EarlyExit+extSt.Abandoned > int64(len(exts)) {
			t.Fatalf("BoundExtensions shortcut counts %+v exceed %d extensions", extSt, len(exts))
		}
		for e, it := range exts {
			cand := dataset.NewItemset(append(append([]dataset.Item{}, prefix...), it)...)
			ref := m.referenceUpperBound(cand)
			if extDec[e] != (ref >= minsup) {
				t.Fatalf("BoundExtensions(%v + %d) = %v at %d, reference bound %d", prefix, it, extDec[e], minsup, ref)
			}
		}
	}
}

// randomItemsetOfLen draws a uniformly random itemset of exactly want
// distinct items from a k-item domain.
func randomItemsetOfLen(r *rand.Rand, k, want int) dataset.Itemset {
	perm := r.Perm(k)[:want]
	items := make([]dataset.Item, want)
	for i, p := range perm {
		items[i] = dataset.Item(p)
	}
	return dataset.NewItemset(items...)
}

// TestKernelDifferentialAcrossSegmenters proves the equivalence
// guarantee on maps produced by all five segmentation algorithms, not
// just hand-built ones: the segmenter cannot produce a row layout the
// kernels mis-handle.
func TestKernelDifferentialAcrossSegmenters(t *testing.T) {
	algs := []Algorithm{AlgRandom, AlgRC, AlgGreedy, AlgRandomRC, AlgRandomGreedy}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(alg) + 7))
			for rep := 0; rep < 4; rep++ {
				d := randomDataset(r)
				mPages := 1 + r.Intn(d.NumTx())
				pages := dataset.PaginateN(d, mPages)
				rows := dataset.PageCounts(d, pages)
				target := 1 + r.Intn(mPages)
				res, err := Segment(rows, Options{
					Algorithm:      alg,
					TargetSegments: target,
					MidSegments:    mPages,
					Seed:           r.Int63(),
				})
				if err != nil {
					t.Fatal(err)
				}
				checkKernelsAgainstReference(t, r, res.Map, 8)
			}
		})
	}
}

// TestKernelDifferentialProperty hits many more map shapes (including
// multi-block maps whose segment count exceeds one 16-segment block)
// through random page→segment assignments.
func TestKernelDifferentialProperty(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		_, m := buildRandomSegmentation(r)
		checkKernelsAgainstReference(t, r, m, 6)
	}
}

// TestKernelMultiBlockShortcuts pins the shortcut machinery on a map
// wide enough that decisions can happen before the final block: a
// 64-segment map where one itemset early-exits in block 0 and another
// abandons in block 0.
func TestKernelMultiBlockShortcuts(t *testing.T) {
	const segs, k = 64, 4
	rows := make([][]uint32, segs)
	for s := range rows {
		rows[s] = make([]uint32, k)
		rows[s][0] = 100 // item 0: plentiful everywhere
		rows[s][1] = 100
		// items 2, 3 are empty everywhere: their pair abandons immediately.
	}
	m, err := NewMap(rows)
	if err != nil {
		t.Fatal(err)
	}
	hot := dataset.NewItemset(0, 1)
	cold := dataset.NewItemset(2, 3)
	// 64 segments is past the pair crossover, so the pair kernel checks
	// the abandon remainder every abandonStride segments.
	if ok, out := m.boundAtLeast(hot, 200); !ok || out != boundEarlyExit {
		t.Errorf("hot pair: ok=%v outcome=%d, want early exit", ok, out)
	}
	if ok, out := m.boundAtLeast(cold, 1); ok || out != boundAbandoned {
		t.Errorf("cold pair: ok=%v outcome=%d, want abandon", ok, out)
	}
	dec := make([]bool, 2)
	st := m.BoundBatch([]dataset.Itemset{hot, cold}, 200, dec)
	if !dec[0] || dec[1] {
		t.Errorf("BoundBatch decisions = %v, want [true false]", dec)
	}
	if st.EarlyExit != 1 || st.Abandoned != 1 {
		t.Errorf("BoundBatch stats = %+v, want one early exit and one abandon", st)
	}
}

// deepBoundaryMap builds an 80-segment, 8-item map of small random cells
// with one cell pinned at boundary — deep enough that pair, triple and
// k-item kernels all run past the small crossover.
func deepBoundaryMap(t *testing.T, r *rand.Rand, boundary uint32) *Map {
	t.Helper()
	const segs, k = 80, 8
	rows := make([][]uint32, segs)
	for s := range rows {
		rows[s] = make([]uint32, k)
		for i := range rows[s] {
			rows[s][i] = uint32(r.Intn(120))
		}
	}
	rows[segs/2][k/2] = boundary
	m, err := NewMap(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKernelQuantizedOverflowBoundary pins exactness on both sides of the
// 16-bit cell boundary, where a narrower (quantized) cell type would
// overflow: with one cell at 65535 or 65536 every kernel decision stays
// bit-identical to the reference bound.
func TestKernelQuantizedOverflowBoundary(t *testing.T) {
	for _, tc := range []struct {
		name string
		cell uint32
	}{
		{"fits-65535", 65535},
		{"overflows-65536", 65536},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(41))
			checkKernelsAgainstReference(t, r, deepBoundaryMap(t, r, tc.cell), 10)
		})
	}
}

// TestKernelOverflowAcrossSegmenters reruns the five-segmenter
// differential on maps whose merged segments straddle the 16-bit
// boundary: one fixture with page cells ≥ 32768 (any two-page merge
// exceeds 65535) next to a small-cell control. No segmenter can produce a
// row layout where large cells disagree with the reference bound.
func TestKernelOverflowAcrossSegmenters(t *testing.T) {
	algs := []Algorithm{AlgRandom, AlgRC, AlgGreedy, AlgRandomRC, AlgRandomGreedy}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(alg) + 101))
			const pages, k = 24, 6
			for rep, lo := range []uint32{0, 40000} {
				span := 100
				if lo > 0 {
					span = 20000
				}
				rows := make([][]uint32, pages)
				for p := range rows {
					rows[p] = make([]uint32, k)
					for i := range rows[p] {
						rows[p][i] = lo + uint32(r.Intn(span))
					}
				}
				res, err := Segment(rows, Options{
					Algorithm:      alg,
					TargetSegments: 4 + r.Intn(4),
					MidSegments:    pages,
					Seed:           r.Int63(),
				})
				if err != nil {
					t.Fatal(err)
				}
				m := res.Map
				overflow := false
				for s := 0; s < m.NumSegments(); s++ {
					for _, c := range m.SegmentRow(s) {
						if c > 0xFFFF {
							overflow = true
						}
					}
				}
				if wantOverflow := rep == 1; overflow != wantOverflow {
					t.Fatalf("rep %d: cell overflow = %v, fixture expects %v", rep, overflow, wantOverflow)
				}
				checkKernelsAgainstReference(t, r, m, 6)
			}
		})
	}
}

// TestAppenderLargeCountCrossing drives the online path across the
// 16-bit boundary: with a one-segment budget every compaction merges all
// history into a single row, so past 65535 transactions one cell holds a
// count no 16-bit cell could. Answers must stay exact on both sides, and
// the earlier snapshot — an independent immutable map — must keep its
// own counts.
func TestAppenderLargeCountCrossing(t *testing.T) {
	a, err := NewAppender(3, AppenderOptions{PageSize: 1000, MaxSegments: 1, Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}
	tx := dataset.NewItemset(0, 1)
	addN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := a.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := func() *Map {
		t.Helper()
		m, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	check := func(m *Map, total int64, ctx string) {
		t.Helper()
		if got := m.UpperBound(tx); got != total {
			t.Fatalf("%s: UpperBound(%v) = %d, want %d", ctx, tx, got, total)
		}
		if !m.BoundAtLeast(tx, total) || m.BoundAtLeast(tx, total+1) {
			t.Fatalf("%s: BoundAtLeast disagrees with the exact pair support %d", ctx, total)
		}
	}

	addN(60000)
	before := snap()
	check(before, 60000, "before crossing")

	addN(10000)
	check(snap(), 70000, "after crossing")

	// Snapshots are independent immutable maps: the pre-crossing one
	// keeps serving its own counts.
	check(before, 60000, "earlier snapshot after later appends")
}
