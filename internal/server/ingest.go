package server

// The durable ingest path: POST /v1/ingest appends transactions to a
// write-ahead-logged store (internal/wal) — written and fsynced before
// the request is acknowledged — and a background compactor periodically
// re-runs segmentation over the accumulated state, promoting the result
// into the serving registry with Swap. Promotion bumps the entry's
// version, so every cached bound against the previous index becomes
// unreachable at once and in-flight readers keep their old index until
// their request completes: the hot-swap never drops a read.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/wal"
)

// IngestConfig tunes an Ingester.
type IngestConfig struct {
	// CompactEvery promotes a fresh index after this many ingested
	// records (0 ⇒ 64).
	CompactEvery int
	// CompactInterval is the compactor's poll period — the longest a
	// pending record waits before promotion when traffic is too slow to
	// hit CompactEvery (0 ⇒ 1s; negative disables polling, leaving only
	// the count trigger).
	CompactInterval time.Duration
}

func (c IngestConfig) withDefaults() IngestConfig {
	if c.CompactEvery == 0 {
		c.CompactEvery = 64
	}
	if c.CompactInterval == 0 {
		c.CompactInterval = time.Second
	}
	return c
}

// Ingester bridges one wal.Store into a Server's registry entry. Create
// with Server.EnableIngest; stop with Close (which stops the compactor
// but leaves the store open for the caller to close).
type Ingester struct {
	srv   *Server
	name  string
	store *wal.Store
	cfg   IngestConfig

	mu       sync.Mutex
	promoted uint64 // sequence number the serving index reflects

	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}
}

// EnableIngest wires a write-ahead-logged store into the server: POST
// /v1/ingest starts accepting transactions for the named entry, the
// store's snapshot outcomes land in the scrape families, and a
// background compactor promotes a freshly segmented index through the
// registry whenever enough records accumulate. Any state the store
// recovered is promoted immediately, so a restarted server serves its
// durable data before the first new ingest.
func (s *Server) EnableIngest(name string, store *wal.Store, cfg IngestConfig) (*Ingester, error) {
	if name == "" || store == nil {
		return nil, fmt.Errorf("server: EnableIngest requires a name and a store")
	}
	if s.ingest.Load() != nil {
		return nil, fmt.Errorf("server: ingest already enabled")
	}
	ing := &Ingester{
		srv:    s,
		name:   name,
		store:  store,
		cfg:    cfg.withDefaults(),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	store.SetOnSnapshot(func(err error) {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		s.obs.snapshots.With(outcome).Inc()
		// An instantaneous event span: snapshots run on whichever append
		// crossed the threshold, so they have no natural request parent —
		// each becomes its own root in /v1/traces.
		_, ev := s.obs.tracer.Start(context.Background(), "wal-snapshot")
		ev.SetAttr("outcome", outcome)
		ev.SetAttr("dataset", name)
		ev.End()
	})
	// Serve recovered state right away; an empty store has nothing to
	// promote yet.
	if err := ing.promote(); err != nil && !errors.Is(err, wal.ErrEmpty) {
		return nil, fmt.Errorf("server: promoting recovered state: %w", err)
	}
	s.ingest.Store(ing)
	go ing.compactor()
	return ing, nil
}

// Close stops the background compactor. The wal.Store itself stays
// open — its lifetime belongs to whoever opened it.
func (ing *Ingester) Close() {
	close(ing.stop)
	<-ing.done
}

// Store exposes the underlying wal.Store.
func (ing *Ingester) Store() *wal.Store { return ing.store }

// Promoted returns the WAL sequence number the serving index currently
// reflects.
func (ing *Ingester) Promoted() uint64 {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.promoted
}

// Backlog returns the count of records durably acknowledged but not yet
// promoted into the serving index — the freshness debt the compactor is
// working off.
func (ing *Ingester) Backlog() uint64 {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if seq := ing.store.Seq(); seq > ing.promoted {
		return seq - ing.promoted
	}
	return 0
}

// compactor is the background promotion loop: it wakes on the record
// counter (kicked by the ingest handler) or the poll ticker, and
// promotes when records landed since the last promotion.
func (ing *Ingester) compactor() {
	defer close(ing.done)
	var tick <-chan time.Time
	if ing.cfg.CompactInterval > 0 {
		t := time.NewTicker(ing.cfg.CompactInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ing.stop:
			return
		case <-ing.notify:
		case <-tick:
		}
		ing.mu.Lock()
		pending := ing.store.Seq() > ing.promoted
		ing.mu.Unlock()
		if pending {
			if err := ing.promote(); err != nil {
				ing.srv.obs.logger.Error("compaction failed", "name", ing.name, "error", err)
			}
		}
	}
}

// promote re-segments the store's current state and swaps the result
// into the registry. Readers racing the swap are answered from the index
// they looked up or a newer one; the version bump retires their cached
// bounds.
func (ing *Ingester) promote() error {
	start := time.Now()
	_, span := ing.srv.obs.tracer.Start(context.Background(), "compaction")
	span.SetAttr("dataset", ing.name)
	ix, seq, err := ing.store.Index()
	if err != nil {
		span.SetAttr("outcome", "error")
		span.End()
		return err
	}
	span.SetAttr("outcome", "ok")
	span.SetAttr("seq", seq)
	span.End()
	ing.srv.obs.compaction.Observe(time.Since(start).Seconds())
	reg := ing.srv.reg
	if _, _, ok := reg.Lookup(ing.name); ok {
		err = reg.Swap(ing.name, ix)
	} else {
		err = reg.AddIndex(ing.name, ix)
	}
	if err != nil {
		return err
	}
	ing.mu.Lock()
	ing.promoted = seq
	ing.mu.Unlock()
	return nil
}

// kick nudges the compactor when enough records accumulated.
func (ing *Ingester) kick() {
	ing.mu.Lock()
	due := ing.store.Seq() >= ing.promoted+uint64(ing.cfg.CompactEvery)
	ing.mu.Unlock()
	if due {
		select {
		case ing.notify <- struct{}{}:
		default:
		}
	}
}

// IngestRequest is the body of POST /v1/ingest: one transaction or a
// batch (exactly one of the two fields). Items need not be sorted; the
// store canonicalizes.
type IngestRequest struct {
	Tx    []ossm.Item   `json:"tx,omitempty"`
	Batch [][]ossm.Item `json:"batch,omitempty"`
}

// IngestResponse acknowledges a durable ingest: the record's WAL
// sequence number was written and fsynced before this response.
type IngestResponse struct {
	Dataset  string `json:"dataset"`
	Seq      uint64 `json:"seq"`
	Ingested int    `json:"ingested"`
	NumTx    int64  `json:"num_tx"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ing := s.ingest.Load()
	if ing == nil {
		s.obs.ingests.With("invalid").Inc()
		s.writeErr(w, http.StatusNotFound, "ingest is not enabled on this server")
		return
	}
	if s.expired(w, r) {
		return
	}
	var req IngestRequest
	if err := decodeJSON(r, &req); err != nil {
		s.obs.ingests.With("invalid").Inc()
		s.writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	single := req.Tx != nil
	if single == (len(req.Batch) > 0) {
		s.obs.ingests.With("invalid").Inc()
		s.writeErr(w, http.StatusBadRequest, "exactly one of tx and batch must be set")
		return
	}
	batch := req.Batch
	if single {
		batch = [][]ossm.Item{req.Tx}
	}
	if len(batch) > s.cfg.MaxBatch {
		s.obs.ingests.With("invalid").Inc()
		s.writeErr(w, http.StatusBadRequest, "batch of %d transactions exceeds the limit of %d", len(batch), s.cfg.MaxBatch)
		return
	}
	txs := make([]ossm.Itemset, len(batch))
	for i, items := range batch {
		txs[i] = ossm.Itemset(items)
	}
	actx, aspan := s.obs.tracer.Start(r.Context(), "ingest-append")
	aspan.SetAttr("txs", len(txs))
	seq, st, err := ing.store.AppendWithStats(txs)
	if err == nil {
		// The store reports how long each durability phase took; the child
		// spans are synthesized backwards from the append's end so the
		// trace shows exactly where the acknowledged write spent its time:
		// encode+write, fsync (the durability point), then the in-memory
		// apply.
		end := time.Now()
		applyStart := end.Add(-st.ApplyDur)
		syncStart := applyStart.Add(-st.SyncDur)
		writeStart := syncStart.Add(-st.WriteDur)
		for _, ph := range []struct {
			name       string
			start, end time.Time
		}{
			{"wal-write", writeStart, syncStart},
			{"wal-fsync", syncStart, applyStart},
			{"wal-apply", applyStart, end},
		} {
			_, span := s.obs.tracer.StartAt(actx, ph.name, ph.start)
			span.EndAt(ph.end)
		}
		aspan.SetAttr("seq", seq)
		aspan.SetAttr("bytes", st.Bytes)
	} else {
		aspan.SetAttr("outcome", "error")
	}
	aspan.End()
	if err != nil {
		switch {
		case errors.Is(err, wal.ErrClosed), errors.Is(err, wal.ErrFailed):
			s.obs.ingests.With("error").Inc()
			s.writeErr(w, http.StatusServiceUnavailable, "%v", err)
		default:
			s.obs.ingests.With("invalid").Inc()
			s.writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.obs.ingests.With("ok").Inc()
	ing.kick()
	s.writeJSON(w, http.StatusOK, IngestResponse{
		Dataset:  ing.name,
		Seq:      seq,
		Ingested: len(batch),
		NumTx:    ing.store.NumTx(),
	})
}
