package dhp

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/apriori"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

func randomDataset(r *rand.Rand) *dataset.Dataset {
	k := 2 + r.Intn(6)
	n := 2 + r.Intn(40)
	b := dataset.NewBuilder(k)
	for i := 0; i < n; i++ {
		sz := r.Intn(k + 1)
		tx := make([]dataset.Item, sz)
		for j := range tx {
			tx[j] = dataset.Item(r.Intn(k))
		}
		if err := b.Append(tx); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func TestDHPMatchesApriori(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minCount := int64(1 + r.Intn(d.NumTx()))
		ap, err := apriori.Mine(d, minCount, apriori.Options{})
		if err != nil {
			return false
		}
		dh, err := Mine(d, minCount, Options{})
		if err != nil {
			return false
		}
		return ap.Equal(dh)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDHPWithTinyHashTable(t *testing.T) {
	// With very few buckets nearly everything collides; the filter prunes
	// nothing but the result must stay exact.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minCount := int64(1 + r.Intn(d.NumTx()))
		ap, err := apriori.Mine(d, minCount, apriori.Options{})
		if err != nil {
			return false
		}
		dh, err := Mine(d, minCount, Options{NumBuckets: 2})
		if err != nil {
			return false
		}
		return ap.Equal(dh)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDHPWithOSSMIsLossless(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minCount := int64(1 + r.Intn(d.NumTx()))
		plain, err := Mine(d, minCount, Options{})
		if err != nil {
			return false
		}
		mPages := 1 + r.Intn(d.NumTx())
		pages := dataset.PaginateN(d, mPages)
		rows := dataset.PageCounts(d, pages)
		seg, err := core.Segment(rows, core.Options{
			Algorithm:      core.AlgRandomRC,
			TargetSegments: 1 + r.Intn(mPages),
			MidSegments:    mPages,
			Seed:           seed,
		})
		if err != nil {
			return false
		}
		pruner := &core.Pruner{Map: seg.Map, MinCount: minCount}
		withOSSM, err := Mine(d, minCount, Options{Options: mining.Options{Pruner: pruner}})
		if err != nil {
			return false
		}
		return plain.Equal(withOSSM)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBucketPruningHappens(t *testing.T) {
	// Construct data where two frequent items never co-occur: the pair's
	// bucket (with a large table) stays below threshold and is pruned.
	b := dataset.NewBuilder(2)
	for i := 0; i < 20; i++ {
		tx := []dataset.Item{0}
		if i%2 == 1 {
			tx = []dataset.Item{1}
		}
		if err := b.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	res, err := Mine(d, 5, Options{NumBuckets: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if StatsOf(res).BucketPruned != 1 {
		t.Errorf("BucketPruned = %d, want 1 (the never-co-occurring pair)", StatsOf(res).BucketPruned)
	}
	if l2 := res.Level(2); l2 != nil && len(l2.Frequent) != 0 {
		t.Errorf("unexpected frequent pairs: %v", l2.Frequent)
	}
}

// TestOSSMReducesC2BeforeBuckets mirrors the Section 7 table: with an
// OSSM in front, DHP counts fewer candidate 2-itemsets than without.
func TestOSSMReducesC2BeforeBuckets(t *testing.T) {
	b := dataset.NewBuilder(12)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 600; i++ {
		var tx []dataset.Item
		lo, hi := 0, 6
		if i >= 300 {
			lo, hi = 6, 12
		}
		for j := lo; j < hi; j++ {
			if r.Float64() < 0.7 {
				tx = append(tx, dataset.Item(j))
			}
		}
		if err := b.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	minCount := int64(60)

	// A small hash table collides heavily, so the bucket filter alone is
	// weak — the regime where the OSSM's extra pruning shows (the paper's
	// table uses 32 768 buckets against 1000 items ≈ 500k pairs, a
	// comparable collision load).
	const buckets = 8
	plain, err := Mine(d, minCount, Options{NumBuckets: buckets})
	if err != nil {
		t.Fatal(err)
	}
	pages := dataset.PaginateN(d, 10)
	rows := dataset.PageCounts(d, pages)
	seg, err := core.Segment(rows, core.Options{Algorithm: core.AlgGreedy, TargetSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	pruner := &core.Pruner{Map: seg.Map, MinCount: minCount}
	withOSSM, err := Mine(d, minCount, Options{Options: mining.Options{Pruner: pruner}, NumBuckets: buckets})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(withOSSM) {
		t.Fatal("OSSM changed DHP's output")
	}
	c2plain := plain.Level(2).Stats.Counted
	c2ossm := withOSSM.Level(2).Stats.Counted
	if c2ossm >= c2plain {
		t.Errorf("candidate 2-itemsets with OSSM (%d) not below without (%d)", c2ossm, c2plain)
	}
}

func TestTrimmingStats(t *testing.T) {
	// The tiny 4-item dataset from the apriori tests: after pass 2, item
	// 3 (infrequent) disappears and short transactions drop.
	d := dataset.MustFromTransactions(4, [][]dataset.Item{
		{0, 1, 2},
		{0, 1},
		{0, 2},
		{1, 2},
		{0, 1, 2, 3},
	})
	res, err := Mine(d, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if StatsOf(res).DroppedTx == 0 {
		t.Error("expected the 2-item transactions to be dropped for pass 3")
	}
	if got, ok := res.Support(dataset.NewItemset(0, 1, 2)); !ok || got != 2 {
		t.Errorf("Support({0,1,2}) = %d,%v; want 2,true (trimming must not lose it)", got, ok)
	}
}

func TestOptionsValidation(t *testing.T) {
	d := dataset.MustFromTransactions(2, [][]dataset.Item{{0}, {1}})
	if _, err := Mine(d, 0, Options{}); err == nil {
		t.Error("minCount 0 accepted")
	}
	for _, buckets := range []int{-5, MaxNumBuckets + 1, 1 << 46} {
		if _, err := Mine(d, 1, Options{NumBuckets: buckets}); !errors.Is(err, mining.ErrInvalidOption) {
			t.Errorf("NumBuckets %d: err = %v, want ErrInvalidOption", buckets, err)
		}
	}
}

func TestMaxLen(t *testing.T) {
	d := dataset.MustFromTransactions(3, [][]dataset.Item{
		{0, 1, 2}, {0, 1, 2}, {0, 1, 2},
	})
	res, err := Mine(d, 2, Options{Options: mining.Options{MaxLen: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Levels {
		if l.K > 2 {
			t.Errorf("level %d produced despite MaxLen 2", l.K)
		}
	}
}

func TestH3FiltersTripleCandidates(t *testing.T) {
	// Pairs {0,1}, {0,2}, {1,2} are each frequent, but the three items
	// never co-occur, so apriori-gen produces the candidate {0,1,2} and
	// the H3 filter (collision-free at this scale) must reject it before
	// counting.
	b := dataset.NewBuilder(3)
	for i := 0; i < 30; i++ {
		for _, tx := range [][]dataset.Item{{0, 1}, {0, 2}, {1, 2}} {
			if err := b.Append(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := b.Build()
	res, err := Mine(d, 20, Options{NumBuckets: 4096})
	if err != nil {
		t.Fatal(err)
	}
	l3 := res.Level(3)
	if l3 != nil && l3.Stats.Counted > 0 {
		t.Errorf("triple candidate was counted despite empty H3 bucket: %+v", l3.Stats)
	}
	// The pair results are unaffected.
	if got, ok := res.Support(dataset.NewItemset(0, 1)); !ok || got != 30 {
		t.Errorf("Support({0,1}) = %d,%v; want 30", got, ok)
	}
}

func parallelTestDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	b := dataset.NewBuilder(24)
	for i := 0; i < 2000; i++ {
		var tx []dataset.Item
		for j := 0; j < 24; j++ {
			if r.Float64() < 0.25 {
				tx = append(tx, dataset.Item(j))
			}
		}
		if err := b.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestDHPParallelMatchesSerial checks Mine end to end with the Workers
// knob set: identical frequent sets and trim counters. (On hosts with a
// single CPU conc.Resolve clamps the pool to 1; the sharded scan itself
// is covered regardless by TestTrimPassShardedMatchesSerial below.)
func TestDHPParallelMatchesSerial(t *testing.T) {
	d := parallelTestDataset(t)
	minCount := int64(80)
	serial, err := Mine(d, minCount, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := Mine(d, minCount, Options{Options: mining.Options{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if !serial.Equal(par) {
			t.Fatalf("workers=%d: parallel result differs from serial", workers)
		}
		ss, ps := StatsOf(serial), StatsOf(par)
		if *ss != *ps {
			t.Errorf("workers=%d: trim stats %+v differ from serial %+v", workers, *ps, *ss)
		}
	}
}

// TestTrimPassShardedMatchesSerial drives the pass-2 trim/count scan with
// a pool of real goroutines (bypassing the NumCPU cap, so the sharded
// path runs on any host) and checks candidate counts, trimmed
// transactions, H3 and trim counters against the serial scan. Under
// -race this also proves the shards share no mutable state.
func TestTrimPassShardedMatchesSerial(t *testing.T) {
	d := parallelTestDataset(t)
	const buckets = 64
	mkCands := func() []*mining.Candidate {
		var cs []*mining.Candidate
		for a := 0; a < 24; a++ {
			for b := a + 1; b < 24; b++ {
				cs = append(cs, &mining.Candidate{Items: dataset.NewItemset(dataset.Item(a), dataset.Item(b))})
			}
		}
		return cs
	}
	frequentItem := make([]bool, 24)
	for i := range frequentItem {
		frequentItem[i] = true
	}
	sc := mkCands()
	sx := &Stats{}
	sr := trimPass(d, sc, frequentItem, buckets, 1, sx, nil)
	for _, pool := range []int{2, 4} {
		pc := mkCands()
		px := &Stats{}
		pr := trimPass(d, pc, frequentItem, buckets, pool, px, nil)
		for i := range sc {
			if sc[i].Count != pc[i].Count {
				t.Fatalf("pool=%d: candidate %v count %d ≠ serial %d", pool, pc[i].Items, pc[i].Count, sc[i].Count)
			}
		}
		if *px != *sx {
			t.Errorf("pool=%d: trim stats %+v ≠ serial %+v", pool, *px, *sx)
		}
		if len(pr.txs) != len(sr.txs) {
			t.Fatalf("pool=%d: %d trimmed txs ≠ serial %d", pool, len(pr.txs), len(sr.txs))
		}
		for i := range sr.txs {
			if !pr.txs[i].Equal(sr.txs[i]) {
				t.Fatalf("pool=%d: trimmed tx %d is %v, serial has %v", pool, i, pr.txs[i], sr.txs[i])
			}
		}
		for b := range sr.h3 {
			if pr.h3[b] != sr.h3[b] {
				t.Fatalf("pool=%d: H3 bucket %d is %d, serial %d", pool, b, pr.h3[b], sr.h3[b])
			}
		}
	}
}
