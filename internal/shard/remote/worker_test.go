package remote

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/shard"
)

// badWireSets are itemsets no coordinator sends: empty, outside the
// item domain, unsorted and duplicated.
var badWireSets = []string{`[[]]`, `[[999999]]`, `[[5,3]]`, `[[3,3]]`}

// TestWorkerRejectsBadItemsets pins the worker's wire boundary: the
// bounds and supports RPCs answer every malformed itemset with a typed
// 400 instead of panicking the handler or returning a silently wrong
// number.
func TestWorkerRejectsBadItemsets(t *testing.T) {
	d, ix := fixture(t, 400, 8, ossm.RandomGreedy, 3)
	rf := startRemoteFleet(t, "retail", ix, d, 1, fastRetry(nil, 0))
	url := rf.servers[0].URL
	for _, path := range []string{"/shard/v1/bounds", "/shard/v1/supports"} {
		for _, sets := range badWireSets {
			body := `{"index":"retail","itemsets":` + sets + `}`
			resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			decErr := json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400", path, sets, resp.StatusCode)
			}
			if decErr != nil || !strings.Contains(eb.Error, shard.ErrBadItemset.Error()) {
				t.Fatalf("%s %s: error body %+v (%v), want a %q error", path, sets, eb, decErr, shard.ErrBadItemset)
			}
		}
	}
	// A valid request still answers.
	out := make([]int64, 1)
	if err := rf.clients[0].PartialBounds(context.Background(), []ossm.Itemset{ossm.NewItemset(1, 2)}, out); err != nil {
		t.Fatalf("valid PartialBounds after bad requests: %v", err)
	}
}

// TestClientWorker400LeavesBreakerClosed sends more bad requests than
// the breaker's failure threshold through a real worker: each fails
// with a permanent (non-ErrUnavailable) error, and the breaker stays
// closed because the shard answered — a bad request is not a sick
// shard.
func TestClientWorker400LeavesBreakerClosed(t *testing.T) {
	d, ix := fixture(t, 400, 8, ossm.RandomGreedy, 3)
	cfg := fastRetry(nil, 2)
	cfg.Breaker = BreakerConfig{FailureThreshold: 2}
	rf := startRemoteFleet(t, "retail", ix, d, 1, cfg)
	c := rf.clients[0]
	bad := []ossm.Itemset{{5, 3}}
	out := make([]int64, 1)
	for i := 0; i < 5; i++ {
		err := c.PartialBounds(context.Background(), bad, out)
		if err == nil {
			t.Fatalf("call %d: PartialBounds of %v succeeded, want a 400", i, bad)
		}
		if errors.Is(err, shard.ErrUnavailable) {
			t.Fatalf("call %d: a 400 must not wrap ErrUnavailable: %v", i, err)
		}
		if err := c.PartialSupports(context.Background(), bad, out); err == nil {
			t.Fatalf("call %d: PartialSupports of %v succeeded, want a 400", i, bad)
		}
		if got := c.BreakerState(); got != BreakerClosed {
			t.Fatalf("call %d: breaker %v after a worker 400, want closed", i, got)
		}
	}
	if err := c.PartialBounds(context.Background(), []ossm.Itemset{ossm.NewItemset(3, 5)}, out); err != nil {
		t.Fatalf("valid PartialBounds after bad requests: %v", err)
	}
}

// TestWorkerRecoversPanic checks the worker envelope turns a handler
// panic into a 500 with an error body, ends the serve span as outcome
// "panic" and logs the panic with the caller's request id.
func TestWorkerRecoversPanic(t *testing.T) {
	var logs strings.Builder
	tracer := obs.NewTracer(16)
	w := NewWorker()
	w.SetObs(obs.NewLogger(&logs, slog.LevelInfo), tracer)
	ts := httptest.NewServer(w.instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("worker handler panic")
	})))
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/shard/v1/bounds", strings.NewReader(`{}`))
	req.Header.Set(requestIDHeader, "worker-panic")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	decErr := json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || decErr != nil || !strings.Contains(eb.Error, "panic") {
		t.Fatalf("status %d body %+v (%v), want a 500 panic error", resp.StatusCode, eb, decErr)
	}
	spans := tracer.Snapshot()
	if len(spans) != 1 || spans[0].Attrs["outcome"] != "panic" || spans[0].Attrs["status"] != http.StatusInternalServerError {
		t.Fatalf("serve spans = %+v, want one ended with outcome panic and status 500", spans)
	}
	if !strings.Contains(logs.String(), `"request_id":"worker-panic"`) || !strings.Contains(logs.String(), `"msg":"panic"`) {
		t.Fatalf("no panic log line with the request id:\n%s", logs.String())
	}
}
