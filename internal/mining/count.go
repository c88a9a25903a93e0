package mining

import (
	"time"

	"github.com/ossm-mining/ossm/internal/conc"
	"github.com/ossm-mining/ossm/internal/dataset"
)

// Counter counts one pass's candidates (all of one cardinality) against
// transactions. The counter itself is read-only while counting: each
// worker acquires its own CountState, counts transactions into it and
// merges it into the candidates afterwards (then hands it to
// ReleaseState), so one counter serves a whole worker pool.
type Counter interface {
	AcquireState() *CountState
	// CountTransactionIntoFunc adds tx (with id tid) to st's count of
	// every candidate it contains, calling onMatch (if non-nil) exactly
	// once per contained candidate.
	CountTransactionIntoFunc(st *CountState, tx dataset.Itemset, tid int, onMatch func(*Candidate))
	// Merge adds st's counts into cands, which must be the slice the
	// counter was built over.
	Merge(cands []*Candidate, st *CountState)
}

// NewCounter returns the counter for candidates of cardinality size: an
// open-addressed pair table at size 2, where the candidate explosion (and
// the OSSM's pruning) lives, and a hash tree for every larger size.
func NewCounter(cands []*Candidate, size int) Counter {
	if size == 2 {
		return newPairTable(cands)
	}
	return NewHashTree(cands, size)
}

// CountParallel counts the candidates of one pass (all of cardinality
// size) against txs, sharding the transactions over a worker pool. One
// shared, read-only Counter serves every worker; each accumulates into
// private CountState, merged afterwards in worker order. The result is
// identical to the serial count. workers follows conc.Resolve semantics
// (already-resolved values pass through unchanged).
//
// When instr is non-nil, each worker's busy interval is reported to it,
// feeding the run report's pool-utilization figure; a nil instr leaves
// the counting loop untouched.
func CountParallel(txs []dataset.Itemset, cands []*Candidate, size, workers int, instr *Instrumentation) {
	workers = conc.Resolve(workers)
	if len(txs) < 4*workers {
		workers = 1
	}
	countSharded(txs, cands, size, workers, instr)
}

// countSharded is the fan-out behind CountParallel (one worker counts
// inline); it takes the pool size as given, so tests can drive shards
// wider than conc.Resolve would allow on the host.
func countSharded(txs []dataset.Itemset, cands []*Candidate, size, workers int, instr *Instrumentation) {
	counter := NewCounter(cands, size)
	states := make([]*CountState, workers)
	conc.ForChunks(workers, len(txs), func(w, lo, hi int) {
		start := time.Time{}
		if instr != nil {
			start = time.Now()
		}
		st := counter.AcquireState()
		states[w] = st
		for i := lo; i < hi; i++ {
			counter.CountTransactionIntoFunc(st, txs[i], i, nil)
		}
		if instr != nil {
			instr.ObserveWorker(time.Since(start))
		}
	})
	for _, st := range states {
		if st != nil {
			counter.Merge(cands, st)
			ReleaseState(st)
		}
	}
}
