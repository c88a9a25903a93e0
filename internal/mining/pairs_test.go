package mining

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// checkPairCounter counts txs against the candidate pairs with the pair
// table and with the k = 2 hash tree, serially, through CountParallel at
// 4 workers and sharded wider than NumCPU, and requires identical counts
// and identical per-candidate onMatch call counts (DHP's trimming reads
// the callback).
func checkPairCounter(t *testing.T, pairs [][2]dataset.Item, txs []dataset.Itemset) {
	t.Helper()
	mk := func() []*Candidate {
		cs := make([]*Candidate, len(pairs))
		for i, p := range pairs {
			cs[i] = &Candidate{Items: dataset.NewItemset(p[0], p[1])}
		}
		return cs
	}
	ref := mk()
	refMatches := make([]int, len(ref))
	tree := NewHashTree(ref, 2)
	for tid, tx := range txs {
		tree.CountTransaction(tx, tid, func(c *Candidate) { refMatches[c.id]++ })
	}
	same := func(what string, got []*Candidate) {
		t.Helper()
		for i := range ref {
			if got[i].Count != ref[i].Count {
				t.Fatalf("%s: candidate %v count %d ≠ hash tree %d", what, got[i].Items, got[i].Count, ref[i].Count)
			}
		}
	}

	serial := mk()
	pt := newPairTable(serial)
	st := pt.AcquireState()
	matches := make([]int, len(serial))
	pos := make(map[*Candidate]int, len(serial))
	for i, c := range serial {
		pos[c] = i
	}
	for tid, tx := range txs {
		pt.CountTransactionIntoFunc(st, tx, tid, func(c *Candidate) { matches[pos[c]]++ })
	}
	pt.Merge(serial, st)
	ReleaseState(st)
	same("serial pair table", serial)
	for i := range ref {
		if matches[i] != refMatches[i] {
			t.Fatalf("candidate %v: onMatch fired %d times, hash tree %d", serial[i].Items, matches[i], refMatches[i])
		}
	}

	par := mk()
	CountParallel(txs, par, 2, 4, nil)
	same("CountParallel(workers=4)", par)
	wide := mk()
	countSharded(txs, wide, 2, runtime.NumCPU()+3, nil)
	same("countSharded wider than NumCPU", wide)
}

// randomPairs draws up to n distinct candidate pairs over items [0, span).
func randomPairs(r *rand.Rand, n, span int) [][2]dataset.Item {
	seen := map[[2]dataset.Item]bool{}
	var out [][2]dataset.Item
	for i := 0; i < n; i++ {
		a, b := dataset.Item(r.Intn(span)), dataset.Item(r.Intn(span))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if p := [2]dataset.Item{a, b}; !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func TestPairCounterMatchesHashTree(t *testing.T) {
	// Candidates live in [0, 40) and miss some of it; transactions draw
	// from [0, 60), so they also hold items above the largest candidate
	// item. Every fifth transaction is empty or has a single item.
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		pairs := randomPairs(r, r.Intn(200), 40)
		if seed == 0 {
			pairs = nil
		}
		txs := make([]dataset.Itemset, 300)
		for i := range txs {
			n := r.Intn(12)
			if i%5 == 0 {
				n = r.Intn(2)
			}
			var tx []dataset.Item
			for j := 0; j < n; j++ {
				tx = append(tx, dataset.Item(r.Intn(60)))
			}
			txs[i] = dataset.NewItemset(tx...)
		}
		checkPairCounter(t, pairs, txs)
	}
}

// FuzzPairCounter: for any distinct candidate pairs and any transactions,
// the pair table and the k = 2 hash tree count the same. Candidate items
// come from byte pairs of cands (items < 64); transactions from tx split
// at 0xFF, items < 96.
func FuzzPairCounter(f *testing.F) {
	f.Add([]byte{}, []byte{1, 2, 3})
	f.Add([]byte{0, 32, 32, 33, 0, 33}, []byte{0, 32, 33, 0xFF, 5, 0xFF, 0xFF, 0, 33, 90})
	f.Add([]byte{1, 2, 2, 1, 3, 3, 63, 62}, []byte{62, 63, 1, 2, 3, 95, 0xFF, 1})
	f.Fuzz(func(t *testing.T, cands, tx []byte) {
		seen := map[[2]dataset.Item]bool{}
		var pairs [][2]dataset.Item
		for i := 0; i+1 < len(cands); i += 2 {
			a, b := dataset.Item(cands[i]%64), dataset.Item(cands[i+1]%64)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if p := [2]dataset.Item{a, b}; !seen[p] {
				seen[p] = true
				pairs = append(pairs, p)
			}
		}
		var txs []dataset.Itemset
		var cur []dataset.Item
		for _, b := range append(tx, 0xFF) {
			if b == 0xFF {
				txs = append(txs, dataset.NewItemset(cur...))
				cur = cur[:0]
				continue
			}
			cur = append(cur, dataset.Item(b%96))
		}
		checkPairCounter(t, pairs, txs)
	})
}
