package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/core"
)

// mineSpec sizes one mining workload: a Quest T10.I4 dataset over 1000
// items with popularity drift, segmented once and mined with serial
// Apriori at 1% support.
type mineSpec struct {
	tx, pages, segments int
	setupReps           int // builds per run; setup_s is their median
	// The workload-character check: the bound's share of the mining wall
	// time must lie in [shareMin, shareMax].
	shareMin, shareMax float64
}

var (
	// Counting does almost all the work; the bound almost none.
	mineCountSpec = mineSpec{tx: 20000, pages: 400, segments: 40, setupReps: 7, shareMin: 0, shareMax: 0.05}
	// The bound prunes most of C2 and carries a large share of the run.
	mineBoundSpec = mineSpec{tx: 40000, pages: 2000, segments: 1000, setupReps: 25, shareMin: 0.20, shareMax: 1}
)

const (
	minSupport = 0.01
	miner      = "apriori"
)

// dataSeed fixes the Quest draw and the segmentation's random phase that
// every workload starts from; --seed reorders the transactions within
// each page (see questData).
const dataSeed = 1

// questData generates the benchmark's transaction collection: Quest
// T10.I4 over 1000 items with drift 0.5, with the transactions of every
// block of block consecutive ones shuffled by a permutation drawn from
// seed. With block the page size, every page holds the same transactions
// whatever the seed, so the segmentation, the bound, the candidates and
// the hash trees are the same and each seed feeds the miners the same
// work in another order. Other Quest draws moved mine-bound's mine_s by
// 19%, and item relabellings (which move candidates between hash-tree
// buckets) moved mine-count's by 15%: more than the change a run is
// meant to detect.
func questData(numTx, block int, seed int64) (*ossm.Dataset, error) {
	c := ossm.DefaultQuest(numTx, dataSeed)
	c.WeightDrift = 0.5
	d, err := ossm.GenerateQuest(c)
	if err != nil {
		return nil, err
	}
	order := make([]int, d.NumTx())
	for i := range order {
		order[i] = i
	}
	rng := newSplitmix(seed, -2)
	for lo := 0; lo < len(order); lo += block {
		blk := order[lo:min(lo+block, len(order))]
		for i := len(blk) - 1; i > 0; i-- {
			j := rng.intn(i + 1)
			blk[i], blk[j] = blk[j], blk[i]
		}
	}
	b := ossm.NewDatasetBuilder(d.NumItems())
	for _, t := range order {
		if err := b.Append(d.Tx(t)); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// buildOptions is the segmentation every workload uses: RandomGreedy
// with a 100-item bubble list formed at 0.25% support.
func buildOptions(pages, segments int) ossm.BuildOptions {
	return ossm.BuildOptions{
		Pages:            pages,
		Segments:         segments,
		Algorithm:        ossm.RandomGreedy,
		BubbleSize:       100,
		BubbleMinSupport: 0.0025,
		Seed:             dataSeed,
	}
}

// timedBuilds builds the index reps times and returns the last index
// with every build's wall time in seconds.
func timedBuilds(d *ossm.Dataset, opts ossm.BuildOptions, reps int) (*ossm.Index, []float64, error) {
	var ix *ossm.Index
	var times []float64
	for i := 0; i < reps; i++ {
		// Each build starts from a collected heap, so no build pays for
		// the garbage of the one before it.
		runtime.GC()
		start := time.Now()
		var err error
		ix, err = ossm.Build(d, opts)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return ix, times, nil
}

func runMineCount(cfg runConfig) (*result, error) { return runMine(cfg, mineCountSpec) }
func runMineBound(cfg runConfig) (*result, error) { return runMine(cfg, mineBoundSpec) }

// mineRun is what one timed MineAt call left behind.
type mineRun struct {
	wall   time.Duration
	res    *ossm.Result
	filter *timedFilter  // nil when untraced
	passes map[int]int64 // traced: pass k → ns between Progress callbacks (k = 0: after the last)
	kc     core.KernelCounters
}

// passClock turns the MineOptions.Progress callback into pass spans: a
// pass runs from the previous callback (or the run's start) to its own
// callback. The bound decorator parents its spans on the open pass.
type passClock struct {
	tr    *tracer
	trace uint64
	root  uint64

	mu        sync.Mutex
	open      uint64 // id of the pass span in progress
	openStart int64
	passes    map[int]int64 // pass k → duration in ns
}

func newPassClock(tr *tracer, trace, root uint64) *passClock {
	c := &passClock{tr: tr, trace: trace, root: root, passes: make(map[int]int64)}
	c.open, c.openStart = tr.newID(), tr.now()
	return c
}

func (c *passClock) current() (uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trace, c.open
}

// progress closes the open pass as pass k and opens the next.
func (c *passClock) progress(ps ossm.PassStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked(fmt.Sprintf("pass-%d", ps.K), ps.K)
	c.open, c.openStart = c.tr.newID(), c.tr.now()
}

// finish closes the pass still open when the run returns (a level that
// generated candidates but reported no pass).
func (c *passClock) finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked("pass-tail", 0)
}

func (c *passClock) closeLocked(name string, k int) {
	end := c.tr.now()
	c.tr.add(span{ID: c.open, Parent: c.root, Trace: c.trace, Name: name, Layer: "mining", Start: c.openStart, End: end})
	c.passes[k] += end - c.openStart
}

// mineOnce runs one timed Apriori pass over d. With tr non-nil the
// pruner is wrapped in the timing decorator and the run is traced.
func mineOnce(d *ossm.Dataset, ix *ossm.Index, minCount int64, tr *tracer, trace uint64) (mineRun, error) {
	p := ix.PrunerAt(minCount)
	opts := ossm.MineOptions{Filter: p}
	var run mineRun
	var clock *passClock
	var root uint64
	var rootStart int64
	if tr != nil {
		root, rootStart = tr.newID(), tr.now()
		clock = newPassClock(tr, trace, root)
		run.filter = newTimedFilter(p, tr, clock.current)
		opts.Filter = run.filter
		opts.Progress = clock.progress
	}
	start := time.Now()
	res, err := ossm.MineAt(miner, d, minCount, opts)
	run.wall = time.Since(start)
	if err != nil {
		return run, err
	}
	if tr != nil {
		clock.finish()
		tr.add(span{ID: root, Trace: trace, Name: "mine-run", Layer: "mining", Start: rootStart, End: tr.now()})
		run.passes = clock.passes
	}
	run.res = res
	run.kc = p.KernelCounters()
	return run, nil
}

// sameResult reports whether got lists exactly the frequent itemsets and
// supports of want, in order.
func sameResult(got *ossm.Result, want []ossm.Counted) error {
	all := got.All()
	if len(all) != len(want) {
		return fmt.Errorf("%d frequent itemsets, want %d", len(all), len(want))
	}
	for i := range all {
		if all[i].Count != want[i].Count || all[i].Items.Key() != want[i].Items.Key() {
			return fmt.Errorf("itemset %d is %v:%d, want %v:%d", i, all[i].Items, all[i].Count, want[i].Items, want[i].Count)
		}
	}
	return nil
}

func runMine(cfg runConfig, spec mineSpec) (*result, error) {
	r := newResult()
	d, err := questData(spec.tx, spec.tx/spec.pages, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ix, builds, err := timedBuilds(d, buildOptions(spec.pages, spec.segments), spec.setupReps)
	if err != nil {
		return nil, err
	}
	setup := median(builds)
	minCount := ossm.MinCountFor(d, minSupport)

	// The reference answer: plain Apriori with no filter, computed
	// outside the timed phase.
	ref, err := ossm.MineAt(miner, d, minCount, ossm.MineOptions{})
	if err != nil {
		return nil, err
	}
	want := ref.All()
	if cfg.corrupt && len(want) > 0 {
		want[len(want)-1].Count++
	}
	c2 := 0
	if len(ref.Levels) > 1 {
		c2 = ref.Levels[1].Stats.Generated
	}

	// phase runs MineAt back to back for dur and checks every answer.
	phase := func(dur time.Duration, tr *tracer) ([]float64, []mineRun, error) {
		var walls []float64
		var runs []mineRun
		deadline := time.Now().Add(dur)
		for trace := uint64(1); len(walls) == 0 || time.Now().Before(deadline); trace++ {
			run, err := mineOnce(d, ix, minCount, tr, trace)
			if err != nil {
				return nil, nil, err
			}
			gateErr := sameResult(run.res, want)
			r.gate(gateErr == nil, "mining run %d: %v", trace, gateErr)
			walls = append(walls, run.wall.Seconds())
			if tr != nil {
				runs = append(runs, run)
			}
		}
		return walls, runs, nil
	}

	measured := time.Duration(cfg.Seconds * float64(time.Second))
	// Warm-up: checked but untimed runs. Without it the mines of the
	// first ~10 s after set-up took 6–10% longer than later ones, a
	// trend that lands unevenly in each run's median.
	if _, _, err := phase(measured/2, nil); err != nil {
		return nil, err
	}
	if !cfg.Trace {
		walls, _, err := phase(measured, nil)
		if err != nil {
			return nil, err
		}
		r.e2e["setup_s"] = setup
		r.e2e["op_p50_ms"] = median(walls) * 1e3
		r.e2e["live_heap_mb"] = liveHeapMB()
		// The dataset and index are the state a mining user holds; keep
		// them live through the measurement.
		runtime.KeepAlive(d)
		runtime.KeepAlive(ix)
		r.name("setup_s", setup, "s", len(builds))
		r.name("mine_s", median(walls), "s", len(walls))
		r.name("live_heap_mb", r.e2e["live_heap_mb"], "MiB", 1)
		return r, nil
	}

	// Traced: an untraced half for the overhead baseline, then a traced
	// half whose decorator counters, pass spans and pass statistics give
	// the per-layer metrics.
	plain, _, err := phase(measured/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	walls, runs, err := phase(measured/2, tr)
	if err != nil {
		return nil, err
	}
	r.spans = tr.snapshot()
	n := float64(len(runs))
	var busy, calls, cands, wall float64
	var kc core.KernelCounters
	var generated, counted, frequent, scanned, pass2, passk float64
	for _, run := range runs {
		for k, ns := range run.passes {
			switch {
			case k == 2:
				pass2 += float64(ns) / 1e9
			case k >= 3 || k == 0:
				passk += float64(ns) / 1e9
			}
		}
		busy += float64(run.filter.busyNS.Load()) / 1e9
		calls += float64(run.filter.calls.Load())
		cands += float64(run.filter.candidates.Load())
		wall += run.wall.Seconds()
		kc.Checked += run.kc.Checked
		kc.Pruned += run.kc.Pruned
		kc.EarlyExit += run.kc.EarlyExit
		kc.Abandoned += run.kc.Abandoned
		for _, l := range run.res.Levels {
			scanned += float64(l.Stats.TxScanned)
			if l.K < 2 {
				continue
			}
			generated += float64(l.Stats.Generated)
			counted += float64(l.Stats.Counted)
			frequent += float64(l.Stats.Frequent)
		}
	}
	L := r.layer
	L["core.segment.busy_s"] = setup
	L["core.segment.index_mb"] = float64(ix.SizeBytes()) / (1 << 20)
	L["core.bound.calls"] = calls / n
	L["core.bound.candidates"] = cands / n
	L["core.bound.busy_s"] = busy / n
	L["core.bound.share"] = ratio(busy, wall)
	L["core.bound.ns_per_candidate"] = ratio(busy*1e9, cands)
	L["core.bound.pruned_ratio"] = ratio(float64(kc.Pruned), float64(kc.Checked))
	L["core.bound.early_exit_ratio"] = ratio(float64(kc.EarlyExit), float64(kc.Checked))
	L["core.bound.abandon_ratio"] = ratio(float64(kc.Abandoned), float64(kc.Checked))
	L["mining.self_s"] = layerSelf(r.spans)["mining"] / n
	L["mining.pass2_s"] = pass2 / n
	L["mining.passk_s"] = passk / n
	L["mining.generated"] = generated / n
	L["mining.counted"] = counted / n
	L["mining.tx_scanned"] = scanned / n
	L["mining.frequent_ratio"] = ratio(frequent, counted)
	L["mining.admitted_infrequent"] = (counted - frequent) / n
	L["loadgen.input_tx"] = float64(d.NumTx())
	L["loadgen.input_items"] = float64(d.NumItems())
	L["loadgen.input_c2"] = float64(c2)
	L["obs.trace_overhead_ratio"] = ratio(median(walls), median(plain))
	zeroUnset(L)

	// Per-pass candidate counts beside the Geerts–Goethals–Van den
	// Bussche bound on candidates derivable from the previous level.
	levels := runs[len(runs)-1].res.Levels
	for i := 1; i < len(levels); i++ {
		ps := levels[i].Stats
		r.notes = append(r.notes, fmt.Sprintf("pass %d: generated %d, pruned %d, counted %d, frequent %d; candidate bound %d",
			ps.K, ps.Generated, ps.Pruned, ps.Counted, ps.Frequent, ossm.CandidateBound(int64(levels[i-1].Stats.Frequent), ps.K-1)))
	}
	share := L["core.bound.share"]
	r.expect(fmt.Sprintf("core.bound.share %.3f in [%g, %g]", share, spec.shareMin, spec.shareMax),
		share >= spec.shareMin && share <= spec.shareMax)
	r.name("traced_op_p50_ms", median(walls)*1e3, "ms", len(walls))
	return r, nil
}
