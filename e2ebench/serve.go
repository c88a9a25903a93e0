package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/server"
	"github.com/ossm-mining/ossm/internal/shard"
	"github.com/ossm-mining/ossm/internal/wal"
)

// serveSpec sizes one serving workload. Load comes from this process
// over at most clients goroutines and connections.
type serveSpec struct {
	baseTx     int // transactions the served index starts from
	shards     int // server.Config.Shards
	pool       int // distinct itemsets the queries draw from
	zipf       bool
	queryRate  int // open-loop /v1/ubsup requests per second
	batchEvery int // query i is a 64-itemset batch when i%batchEvery == 0, else a single itemset
	queryConns int // goroutines issuing the query stream
	ingestRate int // open-loop 16-tx /v1/ingest requests per second, on their own goroutine (0: none)
	setupReps  int
}

func (spec serveSpec) ingest() bool { return spec.ingestRate > 0 }

func (spec serveSpec) queryKind(i int) opKind {
	if i%spec.batchEvery == 0 {
		return opBatch
	}
	return opSingle
}

const (
	indexName   = "bench"
	cacheSize   = 4096 // server.Config default
	batchSize   = 64
	ingestTx    = 16 // transactions per ingest request
	clients     = 2  // client goroutines and connections
	compactRecs = 32 // promote a fresh index every this many ingest records
	snapRecs    = 64 // snapshot the WAL every this many records
)

var (
	// Single-itemset requests with one 64-itemset batch in four, Zipf
	// over 2048 itemsets: the whole working set fits the cache.
	serveHotSpec = serveSpec{baseTx: 20000, pool: 2048, zipf: true, queryRate: 1000, batchEvery: 4, queryConns: 2, setupReps: 7}
	// Uniform 64-itemset batches over 65536 itemsets (16x the cache),
	// with a 50/s ingest stream beside them.
	serveIngestSpec = serveSpec{baseTx: 20000, shards: 2, pool: 65536, queryRate: 350, batchEvery: 1, queryConns: 1, ingestRate: 50, setupReps: 7}
)

type opKind int

const (
	opSingle opKind = iota
	opBatch
	opIngest
)

func (k opKind) String() string {
	return [...]string{"ubsup-single", "ubsup-batch", "ingest"}[k]
}

// liveServer is one server.Server on a loopback listener.
type liveServer struct {
	srv   *server.Server
	hs    *http.Server
	base  string
	done  chan error
	ing   *server.Ingester
	store *wal.Store
	dir   string
}

func startHTTP(srv *server.Server) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close shuts the server down and releases the ingest store, waiting for
// the serving goroutine and the compactor to exit.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if ls.ing != nil {
		ls.ing.Close()
	}
	if ls.store != nil {
		if cerr := ls.store.Close(); err == nil {
			err = cerr
		}
	}
	if ls.dir != "" {
		if rerr := os.RemoveAll(ls.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// serveEnv is the state one serving run shares between its phases.
type serveEnv struct {
	cfg    runConfig
	spec   serveSpec
	r      *result
	client *http.Client
	ls     *liveServer
	d      *ossm.Dataset // base transactions, then the ingest stream
	pool   []ossm.Itemset
	zipf   []float64 // cumulative pick weights (Zipf pools only)
	check  func(i int, b int64) bool

	acked     atomic.Int64 // ingest requests acknowledged since setup
	streamPos atomic.Int64 // next stream transaction to ingest
	walBytes  atomic.Int64 // bytes and transactions the WAL appended
	walTxs    atomic.Int64
	backlog   atomic.Int64 // largest compaction backlog seen after an ingest ack
}

func runServeHot(cfg runConfig) (*result, error)    { return runServe(cfg, serveHotSpec) }
func runServeIngest(cfg runConfig) (*result, error) { return runServe(cfg, serveIngestSpec) }

func runServe(cfg runConfig, spec serveSpec) (*result, error) {
	streamTx := 0
	if spec.ingest() {
		// Enough stream for the rate over the measured time, reused
		// cyclically if a run outlasts it.
		streamTx = int(float64(spec.ingestRate)*cfg.Seconds*ingestTx) + 4096
	}
	d, err := questData(spec.baseTx+streamTx, mineCountSpec.tx/mineCountSpec.pages, cfg.Seed)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{
		cfg:  cfg,
		spec: spec,
		r:    newResult(),
		d:    d,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	defer env.client.CloseIdleConnections()
	env.pool = drawPool(d, spec.baseTx, spec.pool, cfg.Seed)
	if spec.zipf {
		env.zipf = zipfCDF(spec.pool, 1.1)
	}

	var setups []float64
	for i := 0; i < spec.setupReps; i++ {
		if env.ls != nil {
			if err := env.ls.close(); err != nil {
				return nil, err
			}
			env.ls = nil
		}
		runtime.GC() // as in timedBuilds: no set-up pays for the one before
		start := time.Now()
		env.ls, err = env.setup(i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res, err := env.measure(setups)
	if cerr := env.ls.close(); err == nil && cerr != nil {
		return nil, fmt.Errorf("shutting the server down: %w", cerr)
	}
	return res, err
}

// setup starts a server over the base transactions: built offline for
// serve-hot, ingested into a fresh WAL store and promoted for
// serve-ingest. It returns once a bound query answers 200.
func (env *serveEnv) setup(rep int) (*liveServer, error) {
	base := env.d.Slice(0, env.spec.baseTx)
	var ls *liveServer
	var err error
	if !env.spec.ingest() {
		ix, err := ossm.Build(base, buildOptions(mineCountSpec.pages, mineCountSpec.segments))
		if err != nil {
			return nil, err
		}
		srv := server.New(server.Config{Shards: env.spec.shards})
		if err := srv.AddIndex(indexName, ix); err != nil {
			return nil, err
		}
		if ls, err = startHTTP(srv); err != nil {
			return nil, err
		}
	} else if ls, err = env.startIngest(base, rep); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		body := appendUbsup(nil, []ossm.Itemset{env.pool[0]})
		resp, err := env.client.Post(ls.base+"/v1/ubsup", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if time.Now().After(deadline) {
			ls.close()
			return nil, fmt.Errorf("server never answered a bound query (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// startIngest opens a fresh WAL store under the work directory, appends
// the base transactions in 500-transaction records and enables ingest,
// which promotes them into the registry before returning.
func (env *serveEnv) startIngest(base *ossm.Dataset, rep int) (*liveServer, error) {
	dir, err := os.MkdirTemp(env.cfg.WorkDir, fmt.Sprintf("wal-%d-", rep))
	if err != nil {
		return nil, err
	}
	fsys, err := wal.DirFS(dir)
	if err != nil {
		return nil, err
	}
	pages := dataset.PaginateN(base, 200)
	bubble := core.BubbleListFromCounts(dataset.PageCounts(base, pages), ossm.MinCountFor(base, 0.0025), 100)
	store, _, err := wal.Open(fsys, wal.Options{
		NumItems:         base.NumItems(),
		Appender:         ossm.AppenderOptions{PageSize: 100, MaxSegments: 40, Bubble: bubble, Seed: dataSeed},
		SnapshotEvery:    snapRecs,
		PromoteAlgorithm: ossm.RandomGreedy,
		OnAppend: func(st wal.AppendStats) {
			env.walBytes.Add(int64(st.Bytes))
			env.walTxs.Add(int64(st.Txs))
		},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for lo := 0; lo < base.NumTx(); lo += 500 {
		hi := min(lo+500, base.NumTx())
		rec := make([]ossm.Itemset, 0, hi-lo)
		for t := lo; t < hi; t++ {
			rec = append(rec, base.Tx(t))
		}
		if _, err := store.Append(rec); err != nil {
			store.Close()
			os.RemoveAll(dir)
			return nil, err
		}
	}
	srv := server.New(server.Config{Shards: env.spec.shards})
	// Background work is triggered by record counts only, so each run
	// does the same amount of it; the time-based poll is off.
	ing, err := srv.EnableIngest(indexName, store, server.IngestConfig{CompactEvery: compactRecs, CompactInterval: -1})
	if err != nil {
		store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ls, err := startHTTP(srv)
	if err != nil {
		ing.Close()
		store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ls.ing, ls.store, ls.dir = ing, store, dir
	env.acked.Store(0)
	env.streamPos.Store(0)
	return ls, nil
}

// drawPool draws n distinct itemsets of 2 or 3 items, each taken from
// one of the first baseTx transactions, so most have a non-zero support.
func drawPool(d *ossm.Dataset, baseTx, n int, seed int64) []ossm.Itemset {
	rng := newSplitmix(seed, -1)
	seen := make(map[string]bool, n)
	pool := make([]ossm.Itemset, 0, n)
	for len(pool) < n {
		tx := d.Tx(rng.intn(baseTx))
		if len(tx) < 2 {
			continue
		}
		size := 2 + rng.intn(2)
		items := make([]ossm.Item, 0, size)
		for j := 0; j < size; j++ {
			items = append(items, tx[rng.intn(len(tx))])
		}
		set := ossm.NewItemset(items...)
		if len(set) < 2 || seen[set.Key()] {
			continue
		}
		seen[set.Key()] = true
		pool = append(pool, set)
	}
	return pool
}

// zipfCDF returns the cumulative weights of a Zipf(s) law over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var t float64
	for i := range cdf {
		t += 1 / math.Pow(float64(i+1), s)
		cdf[i] = t
	}
	for i := range cdf {
		cdf[i] /= t
	}
	return cdf
}

// picks returns the pool indices op i queries.
func (env *serveEnv) picks(i int, kind opKind) []int {
	rng := newSplitmix(env.cfg.Seed, i)
	n := 1
	if kind == opBatch {
		n = batchSize
	}
	out := make([]int, n)
	for j := range out {
		if env.zipf != nil {
			out[j] = sort.SearchFloat64s(env.zipf, rng.float())
		} else {
			out[j] = rng.intn(len(env.pool))
		}
	}
	return out
}

func appendItemset(b []byte, set ossm.Itemset) []byte {
	b = append(b, '[')
	for i, it := range set {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(it), 10)
	}
	return append(b, ']')
}

// appendUbsup encodes a /v1/ubsup body: the single-itemset form for one
// set, the batch form otherwise.
func appendUbsup(b []byte, sets []ossm.Itemset) []byte {
	b = append(b, `{"index":"`+indexName+`",`...)
	if len(sets) == 1 {
		b = append(b, `"itemset":`...)
		b = appendItemset(b, sets[0])
		return append(b, '}')
	}
	b = append(b, `"itemsets":[`...)
	for i, set := range sets {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendItemset(b, set)
	}
	return append(b, "]}"...)
}

// post sends one request and reads the whole response.
func (env *serveEnv) post(path string, body []byte) (int, []byte, error) {
	resp, err := env.client.Post(env.ls.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// opTiming is what the traced phase keeps per op for its spans and
// replays.
type opTiming struct {
	sent, done time.Time
}

// doQuery runs query op i and checks its answer. timing, when non-nil,
// receives the op's send and completion instants.
func (env *serveEnv) doQuery(i int, timing *opTiming) bool {
	kind := env.spec.queryKind(i)
	idx := env.picks(i, kind)
	sets := make([]ossm.Itemset, len(idx))
	for j, p := range idx {
		sets[j] = env.pool[p]
	}
	code, out, err := env.timedPost("/v1/ubsup", appendUbsup(nil, sets), timing)
	if err != nil || code != http.StatusOK {
		env.r.gate(false, "query %d (%s): status %d, error %v", i, kind, code, err)
		return false
	}
	return env.checkBounds(i, kind, idx, out)
}

// doIngest sends the next ingestTx stream transactions and checks the
// acknowledgement.
func (env *serveEnv) doIngest(j int, timing *opTiming) bool {
	code, out, err := env.timedPost("/v1/ingest", env.appendIngest(nil), timing)
	var resp server.IngestResponse
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(out, &resp)
	}
	if err != nil || code != http.StatusOK || resp.Ingested != ingestTx {
		env.r.gate(false, "ingest %d: status %d, error %v, acknowledgement %q", j, code, err, out)
		return false
	}
	env.acked.Add(1)
	if b := int64(env.ls.ing.Backlog()); b > env.backlog.Load() {
		env.backlog.Store(b)
	}
	env.r.gate(true, "")
	return true
}

func (env *serveEnv) timedPost(path string, body []byte, timing *opTiming) (int, []byte, error) {
	sent := time.Now()
	code, out, err := env.post(path, body)
	if timing != nil {
		timing.sent, timing.done = sent, time.Now()
	}
	return code, out, err
}

// checkBounds decodes a ubsup response and checks every bound.
func (env *serveEnv) checkBounds(i int, kind opKind, idx []int, out []byte) bool {
	var resp server.UbsupResponse
	if err := json.Unmarshal(out, &resp); err != nil || len(resp.Bounds) != len(idx) {
		env.r.gate(false, "op %d (%s): undecodable or short response", i, kind)
		return false
	}
	for j, p := range idx {
		if !env.check(p, resp.Bounds[j].Bound) {
			env.r.gate(false, "op %d (%s): bound %d for %v fails the check", i, kind, resp.Bounds[j].Bound, env.pool[p])
			return false
		}
	}
	env.r.gate(true, "")
	return true
}

// appendIngest encodes the next ingestTx stream transactions, cycling
// through the stream when a run outlasts it.
func (env *serveEnv) appendIngest(b []byte) []byte {
	b = append(b, `{"batch":[`...)
	streamLen := env.d.NumTx() - env.spec.baseTx
	for j := 0; j < ingestTx; j++ {
		pos := int(env.streamPos.Add(1)-1) % streamLen
		if j > 0 {
			b = append(b, ',')
		}
		b = appendItemset(b, env.d.Tx(env.spec.baseTx+pos))
	}
	return append(b, "]}"...)
}

// expectations fixes the check each bound must pass: on serve-hot the
// exact OSSM bound of the served index; on serve-ingest at least the
// exact support over the base transactions (ingest only adds support).
func (env *serveEnv) expectations() error {
	if !env.spec.ingest() {
		ix, _, ok := env.ls.srv.Registry().Lookup(indexName)
		if !ok {
			return fmt.Errorf("index %q is not registered", indexName)
		}
		want := make([]int64, len(env.pool))
		for i, set := range env.pool {
			want[i] = ix.UpperBound(set)
		}
		if env.cfg.corrupt {
			want[0]++
		}
		env.check = func(i int, b int64) bool { return b == want[i] }
		return nil
	}
	exact := exactSupports(env.d.Slice(0, env.spec.baseTx), env.pool)
	if env.cfg.corrupt {
		exact[0] = math.MaxInt64
	}
	env.check = func(i int, b int64) bool { return b >= exact[i] }
	return nil
}

// exactSupports counts every itemset's support over d with per-item
// transaction bitmaps.
func exactSupports(d *ossm.Dataset, sets []ossm.Itemset) []int64 {
	words := (d.NumTx() + 63) / 64
	bitmaps := make([][]uint64, d.NumItems())
	for t := 0; t < d.NumTx(); t++ {
		for _, it := range d.Tx(t) {
			if bitmaps[it] == nil {
				bitmaps[it] = make([]uint64, words)
			}
			bitmaps[it][t/64] |= 1 << (t % 64)
		}
	}
	out := make([]int64, len(sets))
	acc := make([]uint64, words)
	for i, set := range sets {
		if bitmaps[set[0]] == nil {
			continue
		}
		copy(acc, bitmaps[set[0]])
		for _, it := range set[1:] {
			bm := bitmaps[it]
			for w := range acc {
				if bm == nil {
					acc[w] = 0
				} else {
					acc[w] &= bm[w]
				}
			}
		}
		var n int
		for _, w := range acc {
			n += bits.OnesCount64(w)
		}
		out[i] = int64(n)
	}
	return out
}

// warm fills the cache and the connections before anything is timed:
// serve-hot queries its whole pool once, serve-ingest a few batches.
func (env *serveEnv) warm() {
	n := len(env.pool)
	if env.spec.ingest() {
		n = 16 * batchSize
	}
	for lo := 0; lo < n; lo += batchSize {
		idx := make([]int, 0, batchSize)
		sets := make([]ossm.Itemset, 0, batchSize)
		for p := lo; p < min(lo+batchSize, n); p++ {
			idx = append(idx, p)
			sets = append(sets, env.pool[p])
		}
		code, out, err := env.post("/v1/ubsup", appendUbsup(nil, sets))
		if err != nil || code != http.StatusOK {
			env.r.gate(false, "warm-up batch at %d: status %d, error %v", lo, code, err)
			continue
		}
		env.checkBounds(-1, opBatch, idx, out)
	}
}

// phase is one open-loop stretch: the query stream and, beside it, the
// ingest stream. Query ops are numbered from first, so successive phases
// draw different queries.
type phase struct {
	first            int
	queries, ingests []sample
	qTiming, iTiming []opTiming // traced phases only
}

func (env *serveEnv) runPhase(dur time.Duration, first int, traced bool) *phase {
	spec := env.spec
	p := &phase{first: first}
	nq := max(1, int(dur.Seconds()*float64(spec.queryRate)))
	ni := int(dur.Seconds() * float64(spec.ingestRate))
	if traced {
		p.qTiming, p.iTiming = make([]opTiming, nq), make([]opTiming, ni)
	}
	at := func(ts []opTiming, i int) *opTiming {
		if ts == nil {
			return nil
		}
		return &ts[i]
	}
	streams := []stream{{n: nq, interval: time.Second / time.Duration(spec.queryRate), workers: spec.queryConns,
		do: func(i int) bool { return env.doQuery(first+i, at(p.qTiming, i)) }}}
	if ni > 0 {
		streams = append(streams, stream{n: ni, interval: time.Second / time.Duration(spec.ingestRate), workers: 1,
			do: func(j int) bool { return env.doIngest(j, at(p.iTiming, j)) }})
	}
	out := openLoop(streams...)
	p.queries = out[0]
	if ni > 0 {
		p.ingests = out[1]
	}
	return p
}

// latencies returns the phase's query latencies of one kind, in ms.
func (p *phase) latencies(spec serveSpec, kind opKind) []float64 {
	return latenciesMS(p.queries, func(i int) bool { return spec.queryKind(p.first+i) == kind })
}

func (env *serveEnv) measure(setups []float64) (*result, error) {
	r := env.r
	spec := env.spec
	if err := env.expectations(); err != nil {
		return nil, err
	}
	afterSetup, err := scrapeMetrics(env.client, env.ls.base)
	if err != nil {
		return nil, err
	}
	env.warm()
	measured := time.Duration(env.cfg.Seconds * float64(time.Second))
	// op_p50_ms is the batch median on both serving workloads. On
	// serve-hot the single-itemset median is printed too, but it moved
	// about twice as much between identical runs: it is mostly the
	// machine's wake-up latency, not the server.
	headline := opBatch

	if !env.cfg.Trace {
		open := measured * 7 / 10
		before, err := scrapeMetrics(env.client, env.ls.base)
		if err != nil {
			return nil, err
		}
		p := env.runPhase(open, 0, false)
		after, err := scrapeMetrics(env.client, env.ls.base)
		if err != nil {
			return nil, err
		}
		env.drained()
		env.characterChecks(before, after)
		// Closed loop: capacity on the workload's query mix over both
		// connections.
		first := len(p.queries)
		count, took := closedLoop(measured-open, clients, func(w, j int) {
			env.doQuery(first+j*clients+w, nil)
		})
		rps := float64(count) / took.Seconds()
		heap := liveHeapMB()

		r.e2e["setup_s"] = median(setups)
		r.e2e["op_p50_ms"] = median(p.latencies(spec, headline))
		r.e2e["live_heap_mb"] = heap
		r.name("setup_s", median(setups), "s", len(setups))
		r.name("live_heap_mb", heap, "MiB", 1)
		if single := p.latencies(spec, opSingle); len(single) > 0 {
			r.name("ubsup_single_p50_ms", median(single), "ms", len(single))
			r.name("ubsup_single_p99_ms", quantile(single, 0.99), "ms", len(single))
		}
		batch := p.latencies(spec, opBatch)
		r.name("ubsup_batch_p50_ms", median(batch), "ms", len(batch))
		r.name("ubsup_batch_p99_ms", quantile(batch, 0.99), "ms", len(batch))
		r.name("ubsup_rps", rps, "req/s", count)
		if spec.ingest() {
			ingest := latenciesMS(p.ingests, nil)
			r.name("ingest_p50_ms", median(ingest), "ms", len(ingest))
			r.name("ingest_p99_ms", quantile(ingest, 0.99), "ms", len(ingest))
		}
		return r, nil
	}

	// Traced: an untraced open-loop half for the overhead baseline, then
	// a traced half that gives the per-layer metrics.
	half := measured / 2
	plain := env.runPhase(half, 0, false)
	before, err := scrapeMetrics(env.client, env.ls.base)
	if err != nil {
		return nil, err
	}
	env.backlog.Store(0)
	walBytes0, walTxs0 := env.walBytes.Load(), env.walTxs.Load()
	tr := newTracer()
	p := env.runPhase(half, len(plain.queries), true)
	after, err := scrapeMetrics(env.client, env.ls.base)
	if err != nil {
		return nil, err
	}
	env.drained()
	env.characterChecks(before, after)

	// Spans: per op a loadgen root from the instant it is timed from,
	// with the HTTP exchange as its child in the server or wal layer.
	phaseStart := p.qTiming[0].sent.Add(-p.queries[0].sent)
	var trace uint64
	addOp := func(s sample, t opTiming, name, layer string) {
		trace++
		root := tr.newID()
		tr.add(span{ID: tr.newID(), Parent: root, Trace: trace, Name: "http-" + name, Layer: layer, Start: tr.at(t.sent), End: tr.at(t.done)})
		tr.add(span{ID: root, Trace: trace, Name: "op-" + name, Layer: "loadgen", Start: tr.at(phaseStart.Add(s.from)), End: tr.at(t.done)})
	}
	for i, s := range p.queries {
		addOp(s, p.qTiming[i], spec.queryKind(p.first+i).String(), "server")
	}
	for j, s := range p.ingests {
		addOp(s, p.iTiming[j], opIngest.String(), "wal")
	}

	// Replays: each traced query's itemsets through the library kernel,
	// and on the sharded workload through a 2-shard in-process fleet.
	ix, _, ok := env.ls.srv.Registry().Lookup(indexName)
	if !ok {
		return nil, fmt.Errorf("index %q is not registered", indexName)
	}
	var fleet *shard.Fleet
	if spec.shards > 1 {
		shards, err := shard.NewLocalShards(ix, nil, spec.shards, 0)
		if err != nil {
			return nil, err
		}
		if fleet, err = shard.NewFleet(shard.Config{HedgeAfter: -1}, shard.Transports(shards)); err != nil {
			return nil, err
		}
	}
	var replayUS, selfUS, scatterUS []float64
	for i := range p.queries {
		kind := spec.queryKind(p.first + i)
		idx := env.picks(p.first+i, kind)
		sets := make([]ossm.Itemset, len(idx))
		for k, q := range idx {
			sets[k] = env.pool[q]
		}
		trace++
		want := make([]int64, len(sets))
		start := time.Now()
		ix.UpperBoundBatch(sets, want)
		kernel := time.Since(start)
		tr.add(span{ID: tr.newID(), Trace: trace, Name: "replay-upper-bound-batch", Layer: "core.bound", Start: tr.at(start), End: tr.at(start.Add(kernel))})
		replayUS = append(replayUS, float64(kernel)/1e3)
		selfUS = append(selfUS, float64(p.qTiming[i].done.Sub(p.qTiming[i].sent)-kernel)/1e3)
		if fleet == nil || kind != opBatch {
			continue
		}
		got := make([]int64, len(sets))
		start = time.Now()
		err := fleet.Bounds(context.Background(), sets, got)
		scatter := time.Since(start)
		tr.add(span{ID: tr.newID(), Trace: trace, Name: "replay-fleet-bounds", Layer: "shard", Start: tr.at(start), End: tr.at(start.Add(scatter))})
		same := err == nil
		for k := range got {
			same = same && got[k] == want[k]
		}
		r.gate(same, "fleet replay of query %d disagrees with UpperBoundBatch (error %v)", p.first+i, err)
		scatterUS = append(scatterUS, float64(scatter-kernel)/1e3)
	}
	r.spans = tr.snapshot()

	var late []float64
	answered := 0
	for _, s := range append(append([]sample(nil), p.queries...), p.ingests...) {
		late = append(late, float64(s.late())/1e6)
		if s.ok {
			answered++
		}
	}
	L := r.layer
	L["core.segment.busy_s"] = median(setups)
	if spec.ingest() {
		L["core.segment.busy_s"] = afterSetup.sum("ossm_compaction_seconds_sum")
	}
	L["core.segment.index_mb"] = float64(ix.SizeBytes()) / (1 << 20)
	L["core.bound.replay_us_per_request"] = sum(replayUS) / float64(max(1, len(replayUS)))
	hits := delta(before, after, "ossm_cache_hits_total")
	misses := delta(before, after, "ossm_cache_misses_total")
	L["server.cache.hit_ratio"] = ratio(hits, hits+misses)
	L["server.cache.evictions"] = delta(before, after, "ossm_cache_evictions_total")
	L["server.bound_queries"] = delta(before, after, "ossm_bound_queries_total")
	L["server.self_us_p50"] = median(selfUS)
	if spec.shards > 1 {
		L["shard.scatter_us_per_batch"] = sum(scatterUS) / float64(max(1, len(scatterUS)))
		L["shard.requests"] = delta(before, after, "ossm_shard_requests_total")
		L["shard.hedges_fired"] = delta(before, after, "ossm_shard_hedges_total", `event="fired"`)
		L["shard.overloaded"] = delta(before, after, "ossm_shard_requests_total", `outcome="overloaded"`)
	}
	if spec.ingest() {
		L["server.compaction.count"] = delta(before, after, "ossm_compaction_seconds_count")
		L["server.compaction.busy_s"] = delta(before, after, "ossm_compaction_seconds_sum")
		L["server.ingest.backlog_max"] = float64(env.backlog.Load())
		L["wal.records"] = delta(before, after, "ossm_ingest_total", `outcome="ok"`)
		L["wal.bytes_per_tx"] = ratio(float64(env.walBytes.Load()-walBytes0), float64(env.walTxs.Load()-walTxs0))
		L["wal.snapshots"] = delta(before, after, "ossm_snapshot_total", `outcome="ok"`)
	}
	L["loadgen.sent"] = float64(len(p.queries) + len(p.ingests))
	L["loadgen.ok"] = float64(answered)
	L["loadgen.late_p99_ms"] = quantile(late, 0.99)
	L["loadgen.input_tx"] = float64(spec.baseTx)
	L["loadgen.input_items"] = float64(ix.NumItems())
	L["loadgen.input_distinct_itemsets"] = float64(len(env.pool))
	L["loadgen.input_cache_entries"] = cacheSize
	traced := p.latencies(spec, headline)
	L["obs.trace_overhead_ratio"] = ratio(median(traced), median(plain.latencies(spec, headline)))
	zeroUnset(L)
	r.name("traced_op_p50_ms", median(traced), "ms", len(traced))
	return r, nil
}

// drained checks, once the open loop has finished, that the store holds
// exactly the base plus every acknowledged ingest.
func (env *serveEnv) drained() {
	if !env.spec.ingest() {
		return
	}
	want := int64(env.spec.baseTx) + env.acked.Load()*ingestTx
	got := env.ls.store.NumTx()
	env.r.gate(got == want, "store holds %d transactions after the stream drained, want %d", got, want)
}

// characterChecks records whether the phase between two scrapes had the
// character the workload exists for.
func (env *serveEnv) characterChecks(before, after scrape) {
	hits := delta(before, after, "ossm_cache_hits_total")
	misses := delta(before, after, "ossm_cache_misses_total")
	hr := ratio(hits, hits+misses)
	r := env.r
	if !env.spec.ingest() {
		r.expect(fmt.Sprintf("server.cache.hit_ratio %.3f >= 0.9", hr), hr >= 0.9)
		r.expect(fmt.Sprintf("%d distinct itemsets < %d cache entries", len(env.pool), cacheSize), len(env.pool) < cacheSize)
		return
	}
	swaps := delta(before, after, "ossm_compaction_seconds_count")
	r.expect(fmt.Sprintf("server.cache.hit_ratio %.3f <= 0.3", hr), hr <= 0.3)
	r.expect(fmt.Sprintf("%g compaction swaps >= 1", swaps), swaps >= 1)
	r.expect(fmt.Sprintf("%d distinct itemsets >= 10 x %d cache entries", len(env.pool), cacheSize), len(env.pool) >= 10*cacheSize)
}
