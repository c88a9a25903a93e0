package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop operation's timing, as offsets from the start
// of its phase.
type sample struct {
	due  time.Duration // when the schedule said to send it
	from time.Duration // where its latency is measured from
	sent time.Duration
	done time.Duration
	ok   bool
}

func (s sample) latency() time.Duration { return s.done - s.from }
func (s sample) late() time.Duration    { return s.sent - s.due }

// stream is one open-loop schedule: n operations, op i due at
// i·interval after the common start, issued by workers goroutines. do
// runs op i and returns when its response has been read completely,
// with whether the answer was correct.
type stream struct {
	n        int
	interval time.Duration
	workers  int
	do       func(i int) bool
}

// openLoop runs the streams side by side from one start and returns
// each stream's samples, indexed by op.
//
// An op that comes due while its stream's workers are all busy is timed
// from its due time, so a stall shows in the latency of every request
// queued behind it (no coordinated omission). An op a worker picks up
// early is slept for and timed from when the worker woke: the timer's
// wake-up slack is the generator's own lateness, reported by
// sample.late, not the server's latency.
func openLoop(streams ...stream) [][]sample {
	out := make([][]sample, len(streams))
	start := time.Now()
	var wg sync.WaitGroup
	for k, st := range streams {
		samples := make([]sample, st.n)
		out[k] = samples
		next := new(atomic.Int64)
		for w := 0; w < st.workers; w++ {
			wg.Add(1)
			go func(st stream) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= st.n {
						return
					}
					due := time.Duration(i) * st.interval
					from := due
					if now := time.Since(start); now < due {
						time.Sleep(due - now)
						from = time.Since(start)
					}
					s := sample{due: due, from: from, sent: time.Since(start)}
					s.ok = st.do(i)
					s.done = time.Since(start)
					samples[i] = s
				}
			}(st)
		}
	}
	wg.Wait()
	return out
}

// closedLoop runs do back to back on workers goroutines until dur has
// passed and returns how many calls completed and the time they took.
// do receives the worker number and a per-worker call counter.
func closedLoop(dur time.Duration, workers int, do func(w, j int)) (int, time.Duration) {
	var count atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				do(w, j)
				count.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return int(count.Load()), time.Since(start)
}

// latenciesMS returns the latencies of the samples keep selects, in ms.
func latenciesMS(samples []sample, keep func(i int) bool) []float64 {
	var out []float64
	for i, s := range samples {
		if keep == nil || keep(i) {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	return out
}

// splitmix is a tiny deterministic generator, so every op's inputs
// follow from (seed, op index) alone, whichever worker runs it.
type splitmix uint64

func newSplitmix(seed int64, i int) splitmix {
	s := splitmix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xbf58476d1ce4e5b9)
	s.next()
	return s
}

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// float returns a value in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }
