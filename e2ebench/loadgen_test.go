package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls the whole server for 100 ms must show in the
// latency of every request queued behind the stall, not only in the one
// request that hit it.
func TestOpenLoopCountsQueueingBehindAStall(t *testing.T) {
	const (
		n        = 400
		interval = time.Millisecond
		stallAt  = 100
		stall    = 100 * time.Millisecond
	)
	var mu sync.Mutex // every request passes through it, so one stall blocks all
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if served.Add(1) == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	samples := openLoop(stream{n: n, interval: interval, workers: clients, do: func(i int) bool {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err == nil && resp.StatusCode == http.StatusOK
	}})[0]

	var slow, slowService int
	var worst time.Duration
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("op %d failed", i)
		}
		if s.latency() >= stall/2 {
			slow++
		}
		if s.done-s.sent >= stall/2 {
			slowService++
		}
		worst = max(worst, s.latency())
	}
	// About stall/interval ops come due during the stall; those due in its
	// first half wait at least stall/2. Timed from send instead, only the
	// requests in flight when it began would look slow.
	if slow < 40 {
		t.Errorf("%d ops waited >= %v counted from their due time, want >= 40 (service-time view saw %d)", slow, stall/2, slowService)
	}
	if slowService > clients {
		t.Errorf("%d ops were slow from send to reply, want at most the %d in flight when the stall began", slowService, clients)
	}
	if worst < stall*9/10 {
		t.Errorf("worst latency %v, want about the %v stall", worst, stall)
	}
	var late []float64
	for _, s := range samples {
		late = append(late, float64(s.late())/1e6)
	}
	if p99 := quantile(late, 0.99); p99 < float64(stall/2)/1e6 {
		t.Errorf("late p99 %.2f ms does not show the generator fell behind during the stall", p99)
	}
}

func TestSplitmixIsDeterministicPerOp(t *testing.T) {
	a, b := newSplitmix(7, 3), newSplitmix(7, 3)
	c := newSplitmix(7, 4)
	if a.next() != b.next() {
		t.Fatal("same (seed, op) gave different streams")
	}
	if a.next() == c.next() {
		t.Fatal("different ops gave the same stream")
	}
}
