package mining

import "github.com/ossm-mining/ossm/internal/dataset"

// pairTable counts candidate 2-itemsets. Every item that occurs in some
// candidate gets a dense rank; a transaction is projected onto its ranked
// items, and every rank pair of the projection probes an open-addressed,
// linear-probing table from the packed (rank_a, rank_b) key to the
// candidate id. Items in no candidate drop out of the projection, so the
// work shrinks with the candidate set — the property that turns OSSM
// pruning into runtime savings at pass 2.
//
// The candidates must be distinct (every pass's candidate generation
// guarantees it). Pairs of a sorted transaction are distinct too, so a
// candidate is matched at most once per transaction without the hash
// tree's lastTID guard.
type pairTable struct {
	cands []*Candidate
	rank  []uint32 // item → 1-based rank; 0 for items in no candidate
	keys  []uint64 // packed rank pair per slot; 0 marks an empty slot
	ids   []int32  // candidate id per occupied slot
	mask  uint64
	shift uint
}

// pairHashMul is the 64-bit Fibonacci hashing multiplier; the top bits
// of key·pairHashMul index the table.
const pairHashMul = 0x9E3779B97F4A7C15

func newPairTable(cands []*Candidate) *pairTable {
	p := &pairTable{cands: cands}
	maxItem := -1
	for _, c := range cands {
		if m := int(c.Items[1]); m > maxItem {
			maxItem = m
		}
	}
	p.rank = make([]uint32, maxItem+1)
	for _, c := range cands {
		p.rank[c.Items[0]] = 1
		p.rank[c.Items[1]] = 1
	}
	// Ranks ascend with items, so a sorted transaction projects onto
	// ascending ranks and every candidate packs as (smaller, larger).
	next := uint32(0)
	for it, r := range p.rank {
		if r != 0 {
			next++
			p.rank[it] = next
		}
	}
	// At most one slot in four is occupied, which keeps the mostly
	// unsuccessful probes short.
	bits := uint(0)
	for 1<<bits < 4*len(cands) {
		bits++
	}
	p.keys = make([]uint64, 1<<bits)
	p.ids = make([]int32, 1<<bits)
	p.mask = 1<<bits - 1
	p.shift = 64 - bits
	for id, c := range cands {
		key := pairKey(p.rank[c.Items[0]], p.rank[c.Items[1]])
		h := (key * pairHashMul) >> p.shift
		for p.keys[h] != 0 {
			h = (h + 1) & p.mask
		}
		p.keys[h] = key
		p.ids[h] = int32(id)
	}
	return p
}

func pairKey(ra, rb uint32) uint64 { return uint64(ra)<<32 | uint64(rb) }

// AcquireState returns pooled counting state sized to the candidates.
func (p *pairTable) AcquireState() *CountState { return acquireState(len(p.cands)) }

// CountTransactionIntoFunc adds tx to st's count of every candidate pair
// it contains, calling onMatch (if non-nil) once per contained candidate.
// The table is not mutated, so concurrent calls with distinct states are
// safe. tid is unused: pairs of a sorted transaction are distinct.
func (p *pairTable) CountTransactionIntoFunc(st *CountState, tx dataset.Itemset, _ int, onMatch func(*Candidate)) {
	proj := st.proj[:0]
	for _, it := range tx {
		if int(it) >= len(p.rank) {
			break // tx ascends; no later item is ranked
		}
		if r := p.rank[it]; r != 0 {
			proj = append(proj, r)
		}
	}
	st.proj = proj
	for a, ra := range proj {
		for _, rb := range proj[a+1:] {
			key := pairKey(ra, rb)
			for h := (key * pairHashMul) >> p.shift; ; h = (h + 1) & p.mask {
				k := p.keys[h]
				if k == key {
					id := p.ids[h]
					st.counts[id]++
					if onMatch != nil {
						onMatch(p.cands[id])
					}
					break
				}
				if k == 0 {
					break
				}
			}
		}
	}
}

// Merge adds the state's counts into the candidates.
func (p *pairTable) Merge(cands []*Candidate, st *CountState) { mergeState(cands, st) }
