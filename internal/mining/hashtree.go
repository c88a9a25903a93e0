package mining

import (
	"sync"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Candidate is a candidate itemset with its running support count,
// counted by a Counter. lastTID guards against counting the same
// transaction twice when several hash paths reach the same leaf; id is
// the candidate's position in the tree's build order (used by the
// shared-tree parallel counting path).
type Candidate struct {
	Items   dataset.Itemset
	Count   int64
	lastTID int
	id      int
}

// HashTree indexes candidates of one cardinality for subset counting, as
// in the original Apriori paper: interior nodes hash an item to a child;
// leaves hold a bounded list of candidates and split when they overflow.
// Counting work scales with the number of candidates — the property that
// turns OSSM pruning into runtime savings.
type HashTree struct {
	root     *htNode
	size     int // cardinality of the candidates
	fanout   int
	maxLeaf  int
	numCands int
}

type htNode struct {
	children []*htNode    // non-nil ⇒ interior node
	leaf     []*Candidate // interior nodes keep leaf == nil
}

func (n *htNode) isLeaf() bool { return n.children == nil }

const (
	defaultFanout  = 32
	defaultMaxLeaf = 8
)

// NewHashTree builds a tree over the given candidates (all of
// cardinality size).
func NewHashTree(cands []*Candidate, size int) *HashTree {
	t := &HashTree{
		root:    &htNode{},
		size:    size,
		fanout:  defaultFanout,
		maxLeaf: defaultMaxLeaf,
	}
	for i, c := range cands {
		c.lastTID = -1
		c.id = i
		t.insert(t.root, c, 0)
	}
	t.numCands = len(cands)
	return t
}

func (t *HashTree) hash(it dataset.Item) int { return int(it) % t.fanout }

func (t *HashTree) insert(n *htNode, c *Candidate, depth int) {
	if n.isLeaf() {
		n.leaf = append(n.leaf, c)
		// Split overflowing leaves while there are still items left to
		// hash on.
		if len(n.leaf) > t.maxLeaf && depth < t.size {
			old := n.leaf
			n.leaf = nil
			n.children = make([]*htNode, t.fanout)
			for _, oc := range old {
				t.insertChild(n, oc, depth)
			}
		}
		return
	}
	t.insertChild(n, c, depth)
}

func (t *HashTree) insertChild(n *htNode, c *Candidate, depth int) {
	h := t.hash(c.Items[depth])
	if n.children[h] == nil {
		n.children[h] = &htNode{}
	}
	t.insert(n.children[h], c, depth+1)
}

// CountTransaction adds tx (with id tid) to the counts of every candidate
// it contains. onMatch, if non-nil, is invoked once per contained
// candidate (DHP uses it to track item participation for transaction
// trimming). The traversal mirrors the classical algorithm: at depth d,
// branch on each remaining transaction item, descending into the child it
// hashes to; at a leaf, verify containment exactly.
func (t *HashTree) CountTransaction(tx dataset.Itemset, tid int, onMatch func(*Candidate)) {
	if len(tx) < t.size {
		return
	}
	t.count(t.root, tx, 0, 0, tid, onMatch)
}

func (t *HashTree) count(n *htNode, tx dataset.Itemset, depth, start, tid int, onMatch func(*Candidate)) {
	if n.isLeaf() {
		for _, c := range n.leaf {
			if c.lastTID != tid && c.Items.SubsetOf(tx) {
				c.lastTID = tid
				c.Count++
				if onMatch != nil {
					onMatch(c)
				}
			}
		}
		return
	}
	// Enough items must remain to complete a candidate of t.size items.
	for i := start; i <= len(tx)-(t.size-depth); i++ {
		if child := n.children[t.hash(tx[i])]; child != nil {
			t.count(child, tx, depth+1, i+1, tid, onMatch)
		}
	}
}

// CountState is per-worker counting state for a shared, read-only
// Counter: several goroutines can count with one counter concurrently,
// each accumulating into its own state, and the states merge afterwards.
type CountState struct {
	counts  []int64
	lastTID []int
	proj    []uint32 // the pair table's projection scratch
}

// NewState allocates counting state sized to the tree.
func (t *HashTree) NewState() *CountState {
	st := &CountState{
		counts:  make([]int64, t.numCands),
		lastTID: make([]int, t.numCands),
	}
	for i := range st.lastTID {
		st.lastTID[i] = -1
	}
	return st
}

// statePool recycles CountState scratch across passes (and across runs):
// a multi-pass miner would otherwise allocate workers × numCands counting
// slots on every pass.
var statePool = sync.Pool{New: func() any { return new(CountState) }}

// acquireState returns pooled counting state with n zeroed counts (and n
// lastTID slots, left for the hash tree to reset).
func acquireState(n int) *CountState {
	st := statePool.Get().(*CountState)
	if cap(st.counts) < n {
		st.counts = make([]int64, n)
		st.lastTID = make([]int, n)
	}
	st.counts = st.counts[:n]
	st.lastTID = st.lastTID[:n]
	for i := range st.counts {
		st.counts[i] = 0
	}
	return st
}

// AcquireState returns counting state sized to the tree, reusing pooled
// scratch when available. Pair with ReleaseState once the state has been
// merged.
func (t *HashTree) AcquireState() *CountState {
	st := acquireState(t.numCands)
	for i := range st.lastTID {
		st.lastTID[i] = -1
	}
	return st
}

// ReleaseState returns st to the scratch pool. The caller must not use it
// afterwards.
func ReleaseState(st *CountState) {
	if st != nil {
		statePool.Put(st)
	}
}

// CountTransactionIntoFunc is CountTransaction accumulating into st
// instead of the candidates themselves; the tree is not mutated, so
// concurrent calls with distinct states are safe. onMatch, if non-nil,
// is invoked once per contained candidate.
func (t *HashTree) CountTransactionIntoFunc(st *CountState, tx dataset.Itemset, tid int, onMatch func(*Candidate)) {
	if len(tx) < t.size {
		return
	}
	t.countInto(st, t.root, tx, 0, 0, tid, onMatch)
}

func (t *HashTree) countInto(st *CountState, n *htNode, tx dataset.Itemset, depth, start, tid int, onMatch func(*Candidate)) {
	if n.isLeaf() {
		for _, c := range n.leaf {
			if st.lastTID[c.id] != tid && c.Items.SubsetOf(tx) {
				st.lastTID[c.id] = tid
				st.counts[c.id]++
				if onMatch != nil {
					onMatch(c)
				}
			}
		}
		return
	}
	for i := start; i <= len(tx)-(t.size-depth); i++ {
		if child := n.children[t.hash(tx[i])]; child != nil {
			t.countInto(st, child, tx, depth+1, i+1, tid, onMatch)
		}
	}
}

// Merge adds the state's counts into the candidates (in tree build
// order). Call once per state after all counting goroutines finish.
func (t *HashTree) Merge(cands []*Candidate, st *CountState) { mergeState(cands, st) }

func mergeState(cands []*Candidate, st *CountState) {
	for i, c := range cands {
		c.Count += st.counts[i]
	}
}
