package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/shard"
)

// FuzzServeWire drives arbitrary POST /v1/ubsup bodies at an in-process
// unsharded server over a small index. Properties: no handler panics and
// no 5xx; anything but a 200 is a 4xx with an error body; and every
// bound a 200 answers equals ix.UpperBound of the canonical itemset,
// whether it came from the fleet or the cache.
func FuzzServeWire(f *testing.F) {
	for _, sets := range []string{`[[]]`, `[[999999]]`, `[[5,3]]`, `[[3,3]]`} {
		f.Add([]byte(`{"index":"retail","itemsets":` + sets + `}`))
	}
	f.Add([]byte(`{"index":"retail","itemset":[5,2,5]}`))
	f.Add([]byte(`{"index":"retail","itemsets":[[1,2],[2,1],[7]],"no_cache":true}`))
	_, ix := fixture(f, 300, 3)
	s := New(Config{CacheSize: 64, MaxBatch: 64})
	if err := s.AddIndex("retail", ix); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ubsup", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var eb errorResponse
			if rec.Code < 400 || rec.Code >= 500 || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
				t.Fatalf("body %q: status %d %q, want 200 or a 4xx error", body, rec.Code, rec.Body.Bytes())
			}
			return
		}
		var req UbsupRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %q answered 200 but does not decode: %v", body, err)
		}
		batch := req.Itemsets
		if req.Itemset != nil {
			batch = [][]ossm.Item{req.Itemset}
		}
		var resp UbsupResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Bounds) != len(batch) {
			t.Fatalf("body %q: %d bounds for %d itemsets", body, len(resp.Bounds), len(batch))
		}
		for i, items := range batch {
			set := ossm.NewItemset(items...)
			if err := shard.CheckItemset(set, ix.NumItems()); err != nil {
				t.Fatalf("body %q: invalid itemset %v answered 200: %v", body, items, err)
			}
			got := resp.Bounds[i]
			if !got.Itemset.Equal(set) || got.Bound != ix.UpperBound(set) {
				t.Fatalf("body %q: itemset %v answered %v = %d, want %v = %d", body, items, got.Itemset, got.Bound, set, ix.UpperBound(set))
			}
		}
	})
}
