// Package memo is the content-addressed evaluation cache underneath the
// repository's drivers. Re-running a mapping search for a (layer shape,
// architecture, search options) triple that has been searched before — the
// normal case for real DNNs, which repeat layer shapes dozens of times, and
// for DSE grids, which re-visit points across panels and CLI invocations —
// is pure waste once the search is deterministic (DESIGN.md §6). The package
// provides:
//
//   - canonical, collision-checked fingerprints (fingerprint.go): a Key is
//     the full stable binary encoding of everything that influences the
//     result, plus an FNV-1a hash of it. The hash only selects a shard and
//     names a disk file; equality is always decided on the full encoding, so
//     a hash collision can cost a miss but never a wrong hit;
//   - a sharded, mutex-striped concurrent cache with singleflight (this
//     file): concurrent workers asking for the same key block on ONE
//     in-flight computation instead of racing through duplicates — exactly
//     what the par-pooled network/DSE drivers need;
//   - an optional versioned on-disk store (disk.go) so repeated CLI
//     invocations start warm.
//
// Values cached here are shared between callers and MUST be treated as
// immutable. Cached computations must be deterministic: the cache assumes
// f(key) is a pure function, which PR 1's bit-deterministic search engine
// guarantees for the mapping searches stored in it.
package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// numShards stripes the cache mutexes. Power of two; 64 keeps contention
// negligible at the worker counts par allows while staying cheap to reset.
const numShards = 64

// Counters aggregates a cache's traffic. All fields are monotonically
// increasing and safe to read concurrently.
type Counters struct {
	hits      atomic.Int64
	misses    atomic.Int64
	waits     atomic.Int64 // singleflight: joined an in-flight computation
	diskHits  atomic.Int64 // misses served from the on-disk store (subset of misses)
	bypass    atomic.Int64 // calls while the cache was disabled
	canceled  atomic.Int64 // lookups abandoned because the caller's context fired
	transient atomic.Int64 // computations evicted instead of cached (context errors)
}

// Hits returns completed lookups served from memory.
func (c *Counters) Hits() int64 { return c.hits.Load() }

// Misses returns lookups that ran (or waited for) the computation.
func (c *Counters) Misses() int64 { return c.misses.Load() }

// InflightWaits returns lookups deduplicated onto another caller's
// in-flight computation by singleflight.
func (c *Counters) InflightWaits() int64 { return c.waits.Load() }

// DiskHits returns memory misses that were served from the disk store.
func (c *Counters) DiskHits() int64 { return c.diskHits.Load() }

// NoteDiskHit records a disk-store hit. Called by cache users that layer a
// Disk store under Do's compute function (mapper.BestCached).
func (c *Counters) NoteDiskHit() { c.diskHits.Add(1) }

// Canceled returns lookups abandoned because the caller's context was
// canceled (or hit its deadline) while waiting on an in-flight computation.
func (c *Counters) Canceled() int64 { return c.canceled.Load() }

// Transient returns computations whose result was NOT cached because they
// died with a context error (canceled search, expired deadline) — evicted
// so a later caller recomputes instead of inheriting the failure.
func (c *Counters) Transient() int64 { return c.transient.Load() }

// String renders the counters for driver output, e.g.
// "memo: 38 hits, 9 misses (2 from disk), 3 in-flight waits".
func (c *Counters) String() string {
	h, m, w, d := c.Hits(), c.Misses(), c.InflightWaits(), c.DiskHits()
	s := fmt.Sprintf("memo: %d hits, %d misses", h, m)
	if d > 0 {
		s += fmt.Sprintf(" (%d from disk)", d)
	}
	if w > 0 {
		s += fmt.Sprintf(", %d in-flight waits", w)
	}
	return s
}

// entry is one cache slot. done is closed exactly once, after val/err (and
// transient) are final; waiters block on it (singleflight). A transient
// entry is one whose computation died with a context error: it is removed
// from the shard before done is closed, so waiters can retry under their own
// (still-live) context.
type entry struct {
	done      chan struct{}
	val       any
	err       error
	transient bool
}

type shard struct {
	mu sync.Mutex
	m  map[string]*entry
}

// Cache is a sharded concurrent memoization table with singleflight.
// The zero value is NOT ready; use New.
type Cache struct {
	shards   [numShards]shard
	disabled atomic.Bool
	counters Counters

	// maxPerShard bounds memory: a shard exceeding it is dropped whole on
	// the next insert (coarse, O(1), and safe — this is a cache).
	maxPerShard int
}

// New returns an empty cache bounding memory to roughly maxEntries entries
// (0 selects the 64k default).
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 1 << 16
	}
	c := &Cache{maxPerShard: (maxEntries + numShards - 1) / numShards}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*entry)
	}
	return c
}

// Default is the process-wide cache used by the memoized search wrappers
// (mapper.BestCached and friends).
var Default = New(0)

// Counters exposes the cache's traffic statistics.
func (c *Cache) Counters() *Counters { return &c.counters }

// SetEnabled turns the cache on (default) or off. While disabled, Do runs
// every computation directly — used by the equivalence tests that compare
// cached against uncached results.
func (c *Cache) SetEnabled(on bool) { c.disabled.Store(!on) }

// Enabled reports whether the cache is active.
func (c *Cache) Enabled() bool { return !c.disabled.Load() }

// Reset drops every cached entry (counters are kept). In-flight
// computations complete normally but their results are not re-inserted for
// waiters that arrive after the reset.
func (c *Cache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[string]*entry)
		s.mu.Unlock()
	}
}

// Len returns the number of resident entries (including in-flight ones).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Do returns the cached value for k, computing it with compute on a miss.
// Concurrent calls with the same key run compute once: the first caller
// computes, the rest block until it finishes (singleflight) and share the
// result. Deterministic errors are cached too — a failed search would fail
// identically on retry.
//
// Context errors are the exception: a computation that returns the leader's
// context.Canceled or DeadlineExceeded says nothing about the key, only
// about that caller's patience, so the entry is evicted instead of cached
// and the partial outcome never becomes visible. Waiters whose own context
// is still live transparently retry (one of them becomes the new leader);
// a waiter whose context fires while blocked abandons the wait with its own
// ctx.Err() and leaves the in-flight computation undisturbed — the leader
// still completes and caches for everyone else.
//
// The returned value is shared by every caller with the same key and must
// not be mutated. compute receives the leader's context and should honor it.
func (c *Cache) Do(ctx context.Context, k Key, compute func(ctx context.Context) (any, error)) (any, error) {
	if c.disabled.Load() {
		c.counters.bypass.Add(1)
		return compute(ctx)
	}
	s := &c.shards[k.Hash%numShards]

	for {
		s.mu.Lock()
		if e, ok := s.m[k.Enc]; ok {
			s.mu.Unlock()
			select {
			case <-e.done:
				c.counters.hits.Add(1)
			default:
				c.counters.waits.Add(1)
				select {
				case <-e.done:
				case <-ctx.Done():
					c.counters.canceled.Add(1)
					return nil, ctx.Err()
				}
			}
			if e.transient {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				continue // the dead entry was evicted; retry as leader
			}
			return e.val, e.err
		}
		if len(s.m) >= c.maxPerShard {
			s.m = make(map[string]*entry)
		}
		e := &entry{done: make(chan struct{})}
		s.m[k.Enc] = e
		s.mu.Unlock()

		c.counters.misses.Add(1)
		func() {
			defer close(e.done) // even on a compute panic, never strand waiters
			e.val, e.err = compute(ctx)
			if isContextErr(e.err) {
				e.transient = true
				e.val = nil
				c.counters.transient.Add(1)
				s.mu.Lock()
				if s.m[k.Enc] == e {
					delete(s.m, k.Enc)
				}
				s.mu.Unlock()
			}
		}()
		return e.val, e.err
	}
}

// isContextErr reports whether err is a cancellation/deadline outcome that
// must not be cached.
func isContextErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Get returns the cached value for k if a COMPLETED entry exists. It never
// waits and never counts as a hit or miss; use it for opportunistic probes.
func (c *Cache) Get(k Key) (any, bool) {
	if c.disabled.Load() {
		return nil, false
	}
	s := &c.shards[k.Hash%numShards]
	s.mu.Lock()
	e, ok := s.m[k.Enc]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil, false
		}
		return e.val, true
	default:
		return nil, false
	}
}
