package core

import (
	"sync"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Bound kernels (DESIGN.md §7). The scalar UpperBound walk answers "what
// is ubsup(X)?", but every caller on the mining hot path only asks the
// cheaper decision question "is ubsup(X) ≥ minsup?". These kernels answer
// it while scanning as few segments as possible, with two symmetric
// shortcuts that both preserve bit-identical decisions with the exact
// bound:
//
//   - early exit: the bound is a sum of non-negative per-segment terms,
//     so once the accumulated partial sum reaches minsup the full bound
//     cannot be smaller — admit without scanning further.
//   - early abandon: the remaining contribution of segments t ≥ s is at
//     most min_{x∈X} suffix[x][s] (the precomputed per-item suffix
//     remainders, see Map), so when acc + remainder < minsup the full
//     bound cannot reach minsup — reject without scanning further.
//
// There is one decision kernel per width class — pairs, triples and
// general k — each streaming the members' contiguous uint32 item-major
// columns into an int64 accumulator. Every batch entry point is a loop
// over these kernels except BoundExtensions, which shares one prefix
// across its candidates, and UpperBoundBatch, which wants values rather
// than decisions.

// boundOutcome records how a decision-mode bound call terminated.
type boundOutcome uint8

const (
	boundFull      boundOutcome = iota // scanned every segment (or decided from totals)
	boundEarlyExit                     // admitted before the final segment
	boundAbandoned                     // rejected before the final segment
)

// settle reports a decision taken after scanning segments 0..s of ns,
// with the shortcut outcome it represents.
func settle(ok bool, s, ns int) (bool, boundOutcome) {
	switch {
	case s == ns-1:
		return ok, boundFull
	case ok:
		return true, boundEarlyExit
	}
	return false, boundAbandoned
}

// BatchStats reports how a batch kernel call decided its candidates:
// EarlyExit candidates were admitted and Abandoned rejected before the
// final segment.
type BatchStats struct {
	EarlyExit int64
	Abandoned int64
}

// note folds one decision outcome into the batch accounting.
func (s *BatchStats) note(o boundOutcome) {
	switch o {
	case boundEarlyExit:
		s.EarlyExit++
	case boundAbandoned:
		s.Abandoned++
	}
}

// smallCrossoverSegs is the segment count at or below which a width-k
// kernel checks the abandon remainder after every segment. On a short
// segment loop the suffix columns are cache-resident, so the eager check
// is nearly free and catches rejections at the earliest point; past the
// crossover the per-segment suffix load stops paying for itself and the
// kernels check every abandonStride segments instead. The crossover
// shifts later as k grows — wider candidates amortize each abandon check
// over more column loads. Measured on the BENCH_5.json fixture shape:
// pairs and triples flip at 32 segments, quads at ~36, quints at ~40.
func smallCrossoverSegs(k int) int {
	switch {
	case k <= 3:
		return 32
	case k == 4:
		return 36
	}
	return 40
}

// abandonStride (a power of two) is how many segments the kernels
// accumulate between suffix-remainder checks past the small crossover.
// The early-exit compare is a register test and stays per-segment, but
// each abandon check streams one extra int64 suffix cell per member.
// Decisions are unchanged (the check is pure early termination); only
// the stop point moves by at most a stride.
const abandonStride = 16

// abandonMask schedules the abandon checks of a width-k kernel over ns
// segments: the check after segment s runs when (s+1)&mask == 0, i.e.
// after every segment up to the small crossover and after every
// abandonStride-th segment past it.
func abandonMask(ns, k int) int {
	if ns <= smallCrossoverSegs(k) {
		return 0
	}
	return abandonStride - 1
}

// rowLoopCrossoverSegs is the segment count above which UpperBoundBatch
// streams the segment-major rows once for the whole batch instead of
// walking each candidate's columns.
const rowLoopCrossoverSegs = 64

// blockSegsFor is the number of segments BoundExtensions streams between
// alive-list compactions. One block must be small enough that early
// decisions are caught promptly, but when the segment loop is long the
// compaction bookkeeping itself becomes the overhead, so deep
// segmentations run wider blocks. Measured: 16 wins through 256
// segments, 32 at 512, 64 from 1024 up.
func blockSegsFor(ns int) int {
	switch {
	case ns >= 1024:
		return 64
	case ns >= 512:
		return 32
	}
	return 16
}

// itemBases resolves each member's column base offset (item × stride)
// into buf, growing it only when too small.
func itemBases(x dataset.Itemset, stride int, buf []int) []int {
	if cap(buf) < len(x) {
		buf = make([]int, len(x))
	}
	buf = buf[:len(x)]
	for j, it := range x {
		buf[j] = int(it) * stride
	}
	return buf
}

// BoundAtLeast reports whether ubsup(x) ≥ minsup, returning exactly
// UpperBound(x) >= minsup while scanning only as many segments as the
// decision requires. Like UpperBound it panics on the empty itemset.
func (m *Map) BoundAtLeast(x dataset.Itemset, minsup int64) bool {
	ok, _ := m.boundAtLeast(x, minsup)
	return ok
}

// boundAtLeast dispatches one decision to its width kernel.
func (m *Map) boundAtLeast(x dataset.Itemset, minsup int64) (bool, boundOutcome) {
	switch len(x) {
	case 0:
		panic("core: BoundAtLeast of the empty itemset is not defined by the OSSM")
	case 1:
		return m.totals[x[0]] >= minsup, boundFull
	case 2:
		return m.boundPair(x[0], x[1], minsup)
	case 3:
		return m.boundTriple(x[0], x[1], x[2], minsup)
	}
	return m.boundK(x, minsup)
}

// boundPair is the pair decision kernel over the columns of a and b.
// restA[s] is the remainder of a's column after segment s.
func (m *Map) boundPair(a, b dataset.Item, minsup int64) (bool, boundOutcome) {
	ns := m.numSegs
	colA := m.itemMajor[int(a)*ns : int(a)*ns+ns]
	colB := m.itemMajor[int(b)*ns : int(b)*ns+ns]
	restA := m.suffix[int(a)*(ns+1)+1 : int(a)*(ns+1)+ns+1]
	restB := m.suffix[int(b)*(ns+1)+1 : int(b)*(ns+1)+ns+1]
	mask := abandonMask(ns, 2)
	var acc int64
	for s := 0; s < ns; s++ {
		acc += int64(min(colA[s], colB[s]))
		if acc >= minsup {
			return settle(true, s, ns)
		}
		if (s+1)&mask == 0 && acc+min(restA[s], restB[s]) < minsup {
			return settle(false, s, ns)
		}
	}
	return false, boundFull
}

// boundTriple is boundPair for the 3-itemset {a, b, c}.
func (m *Map) boundTriple(a, b, c dataset.Item, minsup int64) (bool, boundOutcome) {
	ns := m.numSegs
	colA := m.itemMajor[int(a)*ns : int(a)*ns+ns]
	colB := m.itemMajor[int(b)*ns : int(b)*ns+ns]
	colC := m.itemMajor[int(c)*ns : int(c)*ns+ns]
	restA := m.suffix[int(a)*(ns+1)+1 : int(a)*(ns+1)+ns+1]
	restB := m.suffix[int(b)*(ns+1)+1 : int(b)*(ns+1)+ns+1]
	restC := m.suffix[int(c)*(ns+1)+1 : int(c)*(ns+1)+ns+1]
	mask := abandonMask(ns, 3)
	var acc int64
	for s := 0; s < ns; s++ {
		acc += int64(min(colA[s], colB[s], colC[s]))
		if acc >= minsup {
			return settle(true, s, ns)
		}
		if (s+1)&mask == 0 && acc+min(restA[s], restB[s], restC[s]) < minsup {
			return settle(false, s, ns)
		}
	}
	return false, boundFull
}

// boundK is the decision kernel for any width ≥ 2: member column bases
// are resolved once, so the inner loop is flat array indexing with no
// per-member slice headers or offset multiplies.
func (m *Map) boundK(x dataset.Itemset, minsup int64) (bool, boundOutcome) {
	ns := m.numSegs
	var bb [16]int
	bases := itemBases(x, ns, bb[:0])
	im, suf := m.itemMajor, m.suffix
	mask := abandonMask(ns, len(x))
	var acc int64
	for s := 0; s < ns; s++ {
		minC := im[bases[0]+s]
		for _, b := range bases[1:] {
			minC = min(minC, im[b+s])
		}
		acc += int64(minC)
		if acc >= minsup {
			return settle(true, s, ns)
		}
		if (s+1)&mask != 0 {
			continue
		}
		// suffix rows are (ns+1)-strided: member j's suffix base is its
		// column base plus its item index.
		rem := suf[bases[0]+int(x[0])+s+1]
		for j := 1; j < len(x); j++ {
			rem = min(rem, suf[bases[j]+int(x[j])+s+1])
		}
		if acc+rem < minsup {
			return settle(false, s, ns)
		}
	}
	return false, boundFull
}

// BoundBatch decides a whole generation of candidates, writing
// decisions[i] = (ubsup(cands[i]) ≥ minsup) through the width kernels.
// Candidates may mix widths. decisions must have len(cands) entries;
// every decision is bit-identical to UpperBound(cands[i]) >= minsup, and
// like UpperBound it panics on an empty itemset.
func (m *Map) BoundBatch(cands []dataset.Itemset, minsup int64, decisions []bool) BatchStats {
	var st BatchStats
	if len(decisions) < len(cands) {
		panic("core: BoundBatch needs one decision slot per candidate")
	}
	for ci, x := range cands {
		ok, o := m.boundAtLeast(x, minsup)
		decisions[ci] = ok
		st.note(o)
	}
	return st
}

// batchScratch is the pooled per-call working set of the row-streaming
// batch loops.
type batchScratch struct {
	acc     []int64
	alive   []int32
	prefMin []uint32
	prefSuf []int64
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (sc *batchScratch) accFor(n int) []int64 {
	if cap(sc.acc) < n {
		sc.acc = make([]int64, n)
	}
	acc := sc.acc[:n]
	for i := range acc {
		acc[i] = 0
	}
	return acc
}

func (sc *batchScratch) aliveFor(n int) []int32 {
	if cap(sc.alive) < n {
		sc.alive = make([]int32, 0, n)
	}
	return sc.alive[:0]
}

// UpperBoundBatch computes the exact bound ubsup(cands[i]) for every
// candidate. Past rowLoopCrossoverSegs it streams each segment-major row
// once for the whole batch with no early termination (callers want the
// values, not a decision). If out is too small a fresh slice is
// allocated; the filled slice is returned. Each value is bit-identical
// to UpperBound(cands[i]).
func (m *Map) UpperBoundBatch(cands []dataset.Itemset, out []int64) []int64 {
	if cap(out) < len(cands) {
		out = make([]int64, len(cands))
	}
	out = out[:len(cands)]
	// Under the crossover the column-major scalar scan beats the row
	// loop, and shard sub-maps (internal/shard) land here routinely.
	if m.numSegs <= rowLoopCrossoverSegs {
		for ci, x := range cands {
			out[ci] = m.UpperBound(x)
		}
		return out
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	alive := sc.aliveFor(len(cands))
	for ci, x := range cands {
		switch len(x) {
		case 0:
			panic("core: UpperBoundBatch of the empty itemset is not defined by the OSSM")
		case 1:
			out[ci] = m.totals[x[0]]
		default:
			out[ci] = 0
			alive = append(alive, int32(ci))
		}
	}
	ns, k := m.numSegs, m.numItems
	for s := 0; s < ns && len(alive) > 0; s++ {
		row := m.segMajor[s*k : (s+1)*k]
		for _, ci := range alive {
			x := cands[ci]
			minC := row[x[0]]
			for _, it := range x[1:] {
				minC = min(minC, row[it])
			}
			out[ci] += int64(minC)
		}
	}
	sc.alive = alive
	return out
}

// BoundPairsAmong decides every 2-subset {items[i], items[j]}, i < j, of
// a frequent-1 generation — the candidate-2 wall. Decisions are written
// in the same order a nested i-outer/j-inner loop visits the pairs
// (PairIndex gives the mapping); decisions must have
// len(items)·(len(items)−1)/2 entries. The pair kernel avoids itemset
// materialization entirely.
func (m *Map) BoundPairsAmong(items []dataset.Item, minsup int64, decisions []bool) BatchStats {
	var st BatchStats
	n := len(items)
	if len(decisions) < n*(n-1)/2 {
		panic("core: BoundPairsAmong needs one decision slot per pair")
	}
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ok, o := m.boundPair(items[i], items[j], minsup)
			decisions[idx] = ok
			st.note(o)
			idx++
		}
	}
	return st
}

// PairIndex maps the pair (items[i], items[j]), i < j, of an n-item
// generation to its position in BoundPairsAmong's decisions slice — the
// standard upper-triangular row-major index.
func PairIndex(i, j, n int) int {
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// BoundExtensions decides every one-item extension prefix ∪ {exts[e]} of
// a shared prefix — the shape depth-first miners (Eclat, DepthProject)
// generate candidates in. The prefix's per-segment minima are computed
// once and shared across all extensions, so each extension costs one
// cell touch per segment instead of a full itemset scan; decisions must
// have len(exts) entries. If the prefix is empty each extension is the
// singleton {exts[e]}, decided from the exact totals.
func (m *Map) BoundExtensions(prefix dataset.Itemset, exts []dataset.Item, minsup int64, decisions []bool) BatchStats {
	var st BatchStats
	if len(decisions) < len(exts) {
		panic("core: BoundExtensions needs one decision slot per extension")
	}
	if len(prefix) == 0 {
		for e, it := range exts {
			decisions[e] = m.totals[it] >= minsup
		}
		return st
	}
	if len(exts) == 0 {
		return st
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	ns, k := m.numSegs, m.numItems
	// Per-segment minimum over the prefix items, and its suffix sums:
	// prefSuf[s] = Σ_{t≥s} prefMin[t] caps the prefix side of any
	// extension's remaining contribution.
	if cap(sc.prefMin) < ns {
		sc.prefMin = make([]uint32, ns)
	}
	if cap(sc.prefSuf) < ns+1 {
		sc.prefSuf = make([]int64, ns+1)
	}
	prefMin, prefSuf := sc.prefMin[:ns], sc.prefSuf[:ns+1]
	copy(prefMin, m.Column(prefix[0]))
	for _, it := range prefix[1:] {
		for s, c := range m.itemMajor[int(it)*ns : int(it)*ns+ns] {
			prefMin[s] = min(prefMin[s], c)
		}
	}
	prefSuf[ns] = 0
	for s := ns - 1; s >= 0; s-- {
		prefSuf[s] = prefSuf[s+1] + int64(prefMin[s])
	}

	// Stream the segment-major rows block by block, amortizing each
	// cache-warm row across every extension still undecided.
	acc := sc.accFor(len(exts))
	alive := sc.aliveFor(len(exts))
	for e := range exts {
		alive = append(alive, int32(e))
	}
	block := blockSegsFor(ns)
	for blockStart := 0; blockStart < ns && len(alive) > 0; blockStart += block {
		blockEnd := min(blockStart+block, ns)
		for s := blockStart; s < blockEnd; s++ {
			row := m.segMajor[s*k : (s+1)*k]
			pm := prefMin[s]
			for _, ei := range alive {
				acc[ei] += int64(min(pm, row[exts[ei]]))
			}
		}
		final := blockEnd == ns
		keep := alive[:0]
		for _, ei := range alive {
			a := acc[ei]
			switch {
			case a >= minsup:
				decisions[ei] = true
				if !final {
					st.EarlyExit++
				}
			case final:
				decisions[ei] = false
			case a+min(prefSuf[blockEnd], m.suffix[int(exts[ei])*(ns+1)+blockEnd]) < minsup:
				decisions[ei] = false
				st.Abandoned++
			default:
				keep = append(keep, ei)
			}
		}
		alive = keep
	}
	sc.alive = alive
	return st
}
