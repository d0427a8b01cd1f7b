// Package pool is the ordered worker pool of the campaign, rare-event and
// scenario engines: worker goroutines evaluate an index range and the
// caller folds the results in strict index order, so every fold is
// bit-identical for any worker count.
package pool

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"etherm/internal/panicsafe"
)

const (
	// targetRange is the wall time a claimed range grows towards. A
	// hand-off that wakes a parked goroutine costs a few microseconds, so
	// 50 µs ranges keep dispatch to a few percent of a cheap model's time,
	// while a finite-element sample (milliseconds) still goes one per
	// claim and keeps the load balanced.
	targetRange = 50 * time.Microsecond
	// maxRange caps a range, bounding the work wasted past a stop and the
	// imbalance between workers at the end of a run.
	maxRange = 256
	// buffersPerWorker sizes the fixed buffer set that bounds a run's
	// ranges in flight: per worker one filling, one queued and two
	// overtaking a slow range.
	buffersPerWorker = 4
)

// Build makes n worker states by calling factory(0), …, factory(n−1) on
// the calling goroutine, before any evaluation: factories typically clone
// a shared simulator that a first evaluation mutates. It returns the first
// factory error as is.
func Build[W any](n int, factory func(k int) (W, error)) ([]W, error) {
	ws := make([]W, n)
	for k := range ws {
		w, err := factory(k)
		if err != nil {
			return nil, err
		}
		ws[k] = w
	}
	return ws, nil
}

// Run evaluates every index of [lo, hi) with eval, on one goroutine per
// worker state (at most hi−lo of them), and calls fold for each index in
// strictly increasing order on the calling goroutine. Workers claim
// contiguous ranges from one atomic cursor; a range starts at one index
// and doubles while it takes under targetRange, up to maxRange.
//
// eval writes its result to r. Buffers are recycled: r may hold an earlier
// index's values, eval must overwrite what fold reads, and r is valid only
// until fold returns. A worker state is used by one goroutine at a time.
//
// The first evaluation error or recovered panic in index order stops all
// claims and is returned once fold has seen every index below it. fold
// returning false, or ctx ending, stops dispatch after the ranges in
// flight and discards their results. Run returns nil after a stop by fold
// and ctx.Err() when ctx ended the run before every index was folded. It
// returns only after every worker goroutine has exited.
func Run[W, R any](ctx context.Context, workers []W, lo, hi int, eval func(w W, i int, r *R) error, fold func(i int, r *R) bool) error {
	return run(ctx, workers, lo, hi, grow, eval, fold)
}

// RunEach is Run with every claim exactly one index. It suits evaluations
// whose costs differ by orders of magnitude, such as scenarios of which
// some fail validation at once and others run a transient: an instant
// index never grows the claim that would take the heavy indices after it
// onto one worker.
func RunEach[W, R any](ctx context.Context, workers []W, lo, hi int, eval func(w W, i int, r *R) error, fold func(i int, r *R) bool) error {
	return run(ctx, workers, lo, hi, one, eval, fold)
}

// one is RunEach's range-sizing rule.
func one(int, time.Duration) int { return 1 }

// grow is the range-sizing rule: the next claim after a range of n indices
// (0 before the first) that took d.
func grow(n int, d time.Duration) int {
	switch {
	case n == 0:
		return 1
	case d < targetRange:
		return min(2*n, maxRange)
	}
	return n
}

// batch is one claimed range on its way to the fold: the results of lo,
// lo+1, … and the error that cut the range short at index lo+len(res).
type batch[R any] struct {
	lo  int
	res []R
	err error
}

// dispatch is the state the workers of one run share.
type dispatch[W, R any] struct {
	hi      int
	size    func(n int, d time.Duration) int
	eval    func(w W, i int, r *R) error
	done    <-chan struct{}
	cursor  atomic.Int64
	stop    atomic.Bool
	results chan *batch[R] // one slot per worker, so a send rarely waits for the fold
	free    chan *batch[R]
}

// run is Run with the range-sizing rule as a parameter, so RunEach and
// tests can fix range lengths (at most maxRange).
func run[W, R any](ctx context.Context, workers []W, lo, hi int, size func(int, time.Duration) int, eval func(W, int, *R) error, fold func(int, *R) bool) error {
	if lo >= hi {
		return nil
	}
	n := min(len(workers), hi-lo)
	if n == 0 {
		return fmt.Errorf("pool: no workers for %d indices", hi-lo)
	}
	d := &dispatch[W, R]{
		hi: hi, size: size, eval: eval, done: ctx.Done(),
		results: make(chan *batch[R], n),
		free:    make(chan *batch[R], buffersPerWorker*n),
	}
	for range cap(d.free) {
		d.free <- &batch[R]{res: make([]R, min(maxRange, hi-lo))}
	}
	d.cursor.Store(int64(lo))
	var wg sync.WaitGroup
	wg.Add(n)
	for _, w := range workers[:n] {
		go func() {
			defer wg.Done()
			d.work(w)
		}()
	}
	go func() {
		wg.Wait()
		close(d.results)
	}()

	var pending []*batch[R] // ranges that overtook the one at next
	// Also on a panicking fold: stop the workers and hand back every
	// buffer, so none is left waiting for one.
	defer func() {
		d.stop.Store(true)
		for _, b := range pending {
			d.free <- b
		}
		for b := range d.results {
			d.free <- b
		}
	}()
	next, stopped := lo, false
	var err error
	for b := range d.results {
		pending = append(pending, b)
		for !stopped {
			k := slices.IndexFunc(pending, func(b *batch[R]) bool { return b.lo == next })
			if k < 0 {
				break
			}
			b := pending[k]
			pending = slices.Delete(pending, k, k+1)
			for j := range b.res {
				if !fold(b.lo+j, &b.res[j]) {
					stopped = true
					break
				}
			}
			next = b.lo + len(b.res)
			if b.err != nil && !stopped {
				err, stopped = b.err, true
			}
			d.free <- b
		}
		if stopped {
			d.stop.Store(true)
			for _, b := range pending {
				d.free <- b
			}
			pending = pending[:0]
		}
	}
	if !stopped && next < hi {
		return ctx.Err()
	}
	return err
}

// work claims and evaluates ranges until the cursor passes hi, a range
// fails, or the run is stopped. It takes a buffer before claiming and
// evaluates every range it claims, so the range the fold waits for is
// always on its way.
func (d *dispatch[W, R]) work(w W) {
	n := d.size(0, 0)
	for {
		b := <-d.free
		if d.stopped() {
			d.free <- b
			return
		}
		lo := int(d.cursor.Add(int64(n))) - n
		if lo >= d.hi {
			d.free <- b
			return
		}
		t0 := time.Now()
		d.evalRange(w, b, lo, min(lo+n, d.hi))
		n = d.size(n, time.Since(t0))
		failed := b.err != nil // b belongs to the fold once sent
		d.results <- b
		if failed {
			d.stop.Store(true)
			return
		}
	}
}

// stopped reports whether an error, the fold or ctx stopped the run.
func (d *dispatch[W, R]) stopped() bool {
	select {
	case <-d.done:
		return true
	default:
		return d.stop.Load()
	}
}

// evalRange evaluates [lo, hi) into b up to the first error or panic; one
// deferred recover covers the whole range.
func (d *dispatch[W, R]) evalRange(w W, b *batch[R], lo, hi int) {
	b.lo, b.res, b.err = lo, b.res[:hi-lo], nil
	i := lo
	defer func() {
		if v := recover(); v != nil {
			b.res, b.err = b.res[:i-lo], panicsafe.New(fmt.Sprintf("pool: evaluation of index %d", i), v)
		}
	}()
	for ; i < hi; i++ {
		if err := d.eval(w, i, &b.res[i-lo]); err != nil {
			b.res, b.err = b.res[:i-lo], err
			return
		}
	}
}
