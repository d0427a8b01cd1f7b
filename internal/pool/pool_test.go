package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etherm/internal/panicsafe"
)

// guard runs f and fails the test if it does not return within the hang
// deadline: every pool failure path must return, never wedge its caller.
func guard(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pool run hung")
	}
}

// fixed forces every claim to n indices.
func fixed(n int) func(int, time.Duration) int {
	return func(int, time.Duration) int { return n }
}

// mix64 is a stateless hash for per-index pseudo-random test behaviour.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// jitter delays an evaluation by a pseudo-random amount: mostly a short
// spin, sometimes a sleep that lets other workers overtake.
func jitter(i int) {
	h := mix64(uint64(i))
	if h%16 == 0 {
		time.Sleep(time.Duration(h>>8%50) * time.Microsecond)
		return
	}
	s := 0
	for k := 0; k < int(h>>8%2000); k++ {
		s += k
	}
	_ = s
}

// orderedFold returns a fold that checks strictly increasing indices from
// lo and that each result is the one eval computed for its index, and a
// function reporting the next expected index.
func orderedFold(t *testing.T, lo int) (func(int, *int) bool, func() int) {
	next := lo
	return func(i int, r *int) bool {
		if i != next {
			t.Errorf("fold got index %d, want %d", i, next)
		}
		if *r != 3*i+1 {
			t.Errorf("fold got result %d at index %d, want %d", *r, i, 3*i+1)
		}
		next = i + 1
		return true
	}, func() int { return next }
}

func workersOf(n int) []int {
	ws := make([]int, n)
	for k := range ws {
		ws[k] = k
	}
	return ws
}

func TestFoldOrderAnyWorkersAndRanges(t *testing.T) {
	sizes := map[string]func(int, time.Duration) int{
		"1": fixed(1), "7": fixed(7), "256": fixed(256), "adaptive": grow,
	}
	const lo, hi = 5, 3000
	for name, size := range sizes {
		for workers := 1; workers <= 8; workers++ {
			t.Run(fmt.Sprintf("range=%s/workers=%d", name, workers), func(t *testing.T) {
				guard(t, func() {
					fold, next := orderedFold(t, lo)
					err := run(context.Background(), workersOf(workers), lo, hi, size,
						func(_ int, i int, r *int) error {
							jitter(i)
							*r = 3*i + 1
							return nil
						}, fold)
					if err != nil {
						t.Errorf("run: %v", err)
					}
					if next() != hi {
						t.Errorf("folded up to %d, want %d", next(), hi)
					}
				})
			})
		}
	}
}

func TestErrorIsReturnedWithPrefixFolded(t *testing.T) {
	const lo, hi = 0, 600
	for _, at := range []int{lo, hi / 2, hi - 1} {
		for _, tc := range []struct {
			name    string
			workers int
			failing func(i, at int) bool
		}{
			{"one worker", 1, func(i, at int) bool { return i == at }},
			{"every worker fails", 4, func(i, at int) bool { return i >= at }},
		} {
			t.Run(fmt.Sprintf("%s/at=%d", tc.name, at), func(t *testing.T) {
				guard(t, func() {
					fold, next := orderedFold(t, lo)
					err := Run(context.Background(), workersOf(tc.workers), lo, hi,
						func(_ int, i int, r *int) error {
							jitter(i)
							if tc.failing(i, at) {
								return fmt.Errorf("index %d: %w", i, errBoom)
							}
							*r = 3*i + 1
							return nil
						}, fold)
					if !errors.Is(err, errBoom) {
						t.Errorf("run returned %v, want the evaluation error", err)
					}
					// The first failing index in index order is reported, and
					// every index below it was folded.
					if want := fmt.Sprintf("index %d: boom", at); err == nil || err.Error() != want {
						t.Errorf("run returned %v, want %q", err, want)
					}
					if next() != at {
						t.Errorf("folded up to %d, want %d", next(), at)
					}
				})
			})
		}
	}
}

var errBoom = errors.New("boom")

// inFlight bounds the indices evaluated past a stop: every range buffer of
// the run may hold a full range.
func inFlight(workers int) int { return buffersPerWorker * workers * maxRange }

func TestBuildReturnsFactoryError(t *testing.T) {
	calls := 0
	ws, err := Build(4, func(k int) (int, error) {
		calls++
		if k == 2 {
			return 0, errBoom
		}
		return k, nil
	})
	if !errors.Is(err, errBoom) || ws != nil {
		t.Fatalf("Build = %v, %v; want the factory error", ws, err)
	}
	if calls != 3 {
		t.Errorf("factory called %d times after failing at worker 2, want 3", calls)
	}
	ws, err = Build(3, func(k int) (int, error) { return 10 * k, nil })
	if err != nil || fmt.Sprint(ws) != "[0 10 20]" {
		t.Errorf("Build = %v, %v; want [0 10 20]", ws, err)
	}
}

func TestCancelMidRangeReturns(t *testing.T) {
	for name, size := range map[string]func(int, time.Duration) int{"256": fixed(256), "adaptive": grow} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("range=%s/workers=%d", name, workers), func(t *testing.T) {
				guard(t, func() {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					fold, next := orderedFold(t, 0)
					err := run(ctx, workersOf(workers), 0, 1<<40, size,
						func(_ int, i int, r *int) error {
							if i == 300 {
								cancel()
							}
							*r = 3*i + 1
							return nil
						}, fold)
					if !errors.Is(err, context.Canceled) {
						t.Errorf("run returned %v, want context.Canceled", err)
					}
					if next() <= 300 || next() > 300+inFlight(workers) {
						t.Errorf("folded up to %d after a cancel at index 300", next())
					}
				})
			})
		}
	}
}

func TestFoldStopDiscardsLaterRanges(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			guard(t, func() {
				const stopAt = 1000
				var evals atomic.Int64
				last := -1
				err := Run(context.Background(), workersOf(workers), 0, 1<<40,
					func(_ int, i int, r *int) error {
						evals.Add(1)
						*r = i
						return nil
					},
					func(i int, r *int) bool {
						if i != last+1 || *r != i {
							t.Errorf("fold got index %d (result %d) after %d", i, *r, last)
						}
						last = i
						return i < stopAt
					})
				if err != nil {
					t.Errorf("run stopped by its fold returned %v", err)
				}
				if last != stopAt {
					t.Errorf("fold ran up to %d, want %d", last, stopAt)
				}
				if n := evals.Load(); n > stopAt+1+int64(inFlight(workers)) {
					t.Errorf("%d evaluations for a stop at %d: dispatch did not stop", n, stopAt)
				}
			})
		})
	}
}

func TestPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			guard(t, func() {
				fold, next := orderedFold(t, 0)
				err := Run(context.Background(), workersOf(workers), 0, 500,
					func(_ int, i int, r *int) error {
						if i == 321 {
							panic("kaboom")
						}
						*r = 3*i + 1
						return nil
					}, fold)
				var pe *panicsafe.Error
				if !errors.As(err, &pe) || pe.Value != "kaboom" {
					t.Fatalf("run returned %v, want a recovered panic", err)
				}
				if pe.Where != "pool: evaluation of index 321" {
					t.Errorf("panic recovered at %q", pe.Where)
				}
				if next() != 321 {
					t.Errorf("folded up to %d, want 321", next())
				}
			})
		})
	}
}

func TestFoldPanicPropagatesAfterWorkersStop(t *testing.T) {
	guard(t, func() {
		var active atomic.Int64
		defer func() {
			if v := recover(); v != "fold" {
				t.Errorf("recovered %v, want the fold's panic", v)
			}
			if n := active.Load(); n != 0 {
				t.Errorf("%d evaluations still running after Run returned", n)
			}
		}()
		_ = Run(context.Background(), workersOf(3), 0, 1<<40,
			func(_ int, i int, r *int) error {
				active.Add(1)
				defer active.Add(-1)
				return nil
			},
			func(i int, r *int) bool {
				if i == 100 {
					panic("fold")
				}
				return true
			})
	})
}

// claimSizes runs hi indices of eval on two workers under the production
// sizing rule and returns every range size it chose.
func claimSizes(t *testing.T, hi int, eval func()) []int {
	t.Helper()
	var mu sync.Mutex
	var got []int
	size := func(n int, d time.Duration) int {
		m := grow(n, d)
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
		return m
	}
	guard(t, func() {
		err := run(context.Background(), workersOf(2), 0, hi, size,
			func(_ int, i int, r *int) error { eval(); return nil },
			func(int, *int) bool { return true })
		if err != nil {
			t.Error(err)
		}
	})
	return got
}

// TestRunEachClaimsOneIndex: index 0 returns as soon as index 1 has
// started on the other worker, and indices 2 and 3 each wait until the
// other has started. Growing ranges would hand the worker of the instant
// index 0 the range [2, 4) and wedge; one-index claims complete.
func TestRunEachClaimsOneIndex(t *testing.T) {
	started := [4]chan struct{}{1: make(chan struct{}), 2: make(chan struct{}), 3: make(chan struct{})}
	guard(t, func() {
		fold, next := orderedFold(t, 0)
		err := RunEach(context.Background(), workersOf(2), 0, 4,
			func(_ int, i int, r *int) error {
				switch i {
				case 0:
					<-started[1]
				case 1:
					close(started[1])
					time.Sleep(10 * time.Millisecond)
				case 2, 3:
					close(started[i])
					<-started[5-i]
				}
				*r = 3*i + 1
				return nil
			}, fold)
		if err != nil || next() != 4 {
			t.Errorf("RunEach returned %v after folding up to %d", err, next())
		}
	})
}

// TestSlowModelClaimsOneIndex: a model that takes 2 ms per evaluation
// must never be claimed in ranges, or one worker would sit on several
// finite-element samples while another idles; a no-op model grows its
// ranges to the cap.
func TestSlowModelClaimsOneIndex(t *testing.T) {
	for _, m := range claimSizes(t, 20, func() { time.Sleep(2 * time.Millisecond) }) {
		if m != 1 {
			t.Fatalf("a 2 ms model was claimed %d indices at a time", m)
		}
	}
	top := 0
	for _, m := range claimSizes(t, 1<<16, func() {}) {
		top = max(top, m)
	}
	if top != maxRange {
		t.Errorf("a no-op model grew its ranges only to %d, want %d", top, maxRange)
	}
}
