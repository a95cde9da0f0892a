package main

import (
	"context"
	"sync"
	"time"
)

// timing is one open-loop request's record, all offsets from the
// schedule's origin.
type timing struct {
	due   time.Duration // when the request was due
	lag   time.Duration // how late the dispatcher released it
	start time.Duration // when a connection picked it up
	done  time.Duration // when its answer was fully read
}

// latency is the request's latency timed from its due time, so a stall
// also charges the wait it imposes on every request queued behind it.
func (t timing) latency() time.Duration { return t.done - t.due }

// openLoop releases request i at origin+due[i] whether or not earlier ones
// finished (independent users), and serves released requests in order on
// conns workers, each holding one connection. do(ctx, i) performs request
// i and returns when its answer was complete (work it does afterwards,
// such as fetching the request's trace, still holds the connection). It
// returns every request's timing; on cancellation it stops releasing and
// returns ctx.Err() once the released requests finish.
func openLoop(ctx context.Context, due []time.Duration, conns int, do func(ctx context.Context, i int) time.Time) ([]timing, error) {
	ts := make([]timing, len(due))
	ready := make(chan int, len(due)) // sized to the number of sends: releasing never blocks
	origin := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				ts[i].start = time.Since(origin)
				ts[i].done = do(ctx, i).Sub(origin)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
	var err error
release:
	for i, d := range due {
		if wait := d - time.Since(origin); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				err = ctx.Err()
				break release
			}
		}
		ts[i].due = d
		ts[i].lag = time.Since(origin) - d
		ready <- i
	}
	close(ready)
	wg.Wait()
	timer.Stop()
	return ts, err
}
