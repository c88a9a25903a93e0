package main

import (
	"sync/atomic"
	"time"

	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
)

// timedFilter decorates an OSSM pruner with call, candidate and busy-time
// counters, plus one span per call when traced. It implements the same
// optional interfaces as *core.Pruner (core.BatchFilter and
// core.KernelReporter), so miners dispatch to the same batch kernels and
// read the same kernel counters whether or not the pruner is wrapped.
type timedFilter struct {
	inner *core.Pruner
	tr    *tracer
	// parent reports the span a bound call belongs to (the open pass).
	parent func() (trace, parent uint64)

	calls      atomic.Int64
	candidates atomic.Int64
	busyNS     atomic.Int64
}

var (
	_ core.BatchFilter    = (*timedFilter)(nil)
	_ core.KernelReporter = (*timedFilter)(nil)
)

func newTimedFilter(p *core.Pruner, tr *tracer, parent func() (uint64, uint64)) *timedFilter {
	return &timedFilter{inner: p, tr: tr, parent: parent}
}

// timed runs call as one bound-layer call deciding n candidates.
func (f *timedFilter) timed(name string, n int, call func()) {
	var id uint64
	if f.tr != nil {
		id = f.tr.newID()
	}
	start := time.Now()
	call()
	end := time.Now()
	f.calls.Add(1)
	f.candidates.Add(int64(n))
	f.busyNS.Add(int64(end.Sub(start)))
	if f.tr != nil {
		s := span{ID: id, Name: name, Layer: "core.bound", Start: f.tr.at(start), End: f.tr.at(end)}
		if f.parent != nil {
			s.Trace, s.Parent = f.parent()
		}
		f.tr.add(s)
	}
}

func (f *timedFilter) Allow(x dataset.Itemset) (ok bool) {
	f.timed("bound-allow", 1, func() { ok = f.inner.Allow(x) })
	return ok
}

func (f *timedFilter) AllowPair(a, b dataset.Item) (ok bool) {
	f.timed("bound-allow-pair", 1, func() { ok = f.inner.AllowPair(a, b) })
	return ok
}

func (f *timedFilter) AllowBatch(cands []dataset.Itemset, decisions []bool) {
	f.timed("bound-batch", len(cands), func() { f.inner.AllowBatch(cands, decisions) })
}

func (f *timedFilter) AllowPairsAmong(items []dataset.Item, decisions []bool) {
	n := len(items) * (len(items) - 1) / 2
	f.timed("bound-pairs", n, func() { f.inner.AllowPairsAmong(items, decisions) })
}

func (f *timedFilter) AllowExtensions(prefix dataset.Itemset, exts []dataset.Item, decisions []bool) {
	f.timed("bound-extensions", len(exts), func() { f.inner.AllowExtensions(prefix, exts, decisions) })
}

func (f *timedFilter) KernelCounters() core.KernelCounters { return f.inner.KernelCounters() }
