package mapper

// Content-addressed memoization of whole mapping searches. A search is a
// pure function of (layer shape, architecture, search options) — PR 1 made
// the engine bit-deterministic for any worker count — so its result can be
// keyed by a canonical fingerprint and shared: across the repeated layer
// shapes of a real network (network.Evaluate), across the re-visited grid
// points of a DSE sweep, across annealing restarts, and (optionally, via the
// on-disk store) across CLI invocations.
//
// Four option fields are deliberately EXCLUDED from the key: Workers,
// NoPrune, NoReduce and Hooks. None of them can change the selected mapping
// or its score — Workers and NoPrune only steer scheduling, the symmetry
// reduction is exact (DESIGN.md §9), and telemetry hooks only observe — so
// keying on them would only split identical results across entries. The
// Stats counters DO depend on NoReduce (a reduced run walks classes, a full
// run walks orderings): like Pruned already did, a cached result reports the
// counters of whichever run populated the cache. Hook coalescing caveat:
// when a cached search deduplicates concurrent or repeated calls, only the
// call that actually computes sees telemetry events — followers get the
// shared result with no event stream.
//
// Cached *Candidate values are shared between every caller with the same
// key and MUST be treated as immutable; Stats are returned as per-call
// copies. Because the layer NAME is not part of the key, a "no valid
// mapping" outcome is re-reported under each caller's own layer name.

import (
	"bytes"
	"context"
	"encoding/gob"
	"sync"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/memo"
	"repro/internal/workload"
)

// diskFormatVersion tags the on-disk payload layout AND the model arithmetic
// feeding it. Bump on any change to the gob payloads below, to the search
// space enumeration, or to the latency/energy arithmetic — stale files then
// read as misses.
//
// Version history: 1 = PR 2 (initial disk cache); 2 = symmetry-reduced
// enumeration (Stats gained ClassesMerged/SubtreesPruned, cap and Skipped
// semantics changed to the walk budget); 3 = learned candidate ordering
// (Stats gained three ordering diagnostics); 4 = learned ordering deleted
// (Stats lost those three fields again).
const diskFormatVersion = 4

// DiskVersion returns the current on-disk/wire payload format version.
// Remote blob tiers embed it in their protocol so that nodes running
// different model arithmetic read each other's entries as misses instead of
// mixing results.
func DiskVersion() int { return diskFormatVersion }

var (
	blobMu    sync.Mutex
	blobStore memo.Store
)

// EnableDiskCache opens the on-disk search cache rooted at the resolved
// directory ("auto" selects <user cache dir>/repro-latmodel) and routes all
// subsequent cached searches through it. Returns the resolved directory.
func EnableDiskCache(dirFlag string) (string, error) {
	d, dir, err := OpenDiskStore(dirFlag)
	if err != nil {
		return "", err
	}
	SetBlobStore(d)
	return dir, nil
}

// OpenDiskStore opens the gob disk tier at the resolved directory WITHOUT
// installing it, for callers composing tiers (memo.Tiered) before a single
// SetBlobStore. Returns the store and the resolved directory.
func OpenDiskStore(dirFlag string) (memo.Store, string, error) {
	dir, err := memo.ResolveDir(dirFlag)
	if err != nil {
		return nil, "", err
	}
	d, err := memo.OpenDisk(dir, diskFormatVersion)
	if err != nil {
		return nil, "", err
	}
	return d, dir, nil
}

// SetBlobStore routes all subsequent cached searches through s — any
// memo.Store: the gob disk tier, an in-process store, a remote servemodel
// node, or a tiered composition. nil detaches (DisableDiskCache). The store
// only ever sees deterministically encoded winners under content-addressed
// keys, so a store shared by a fleet hands every node bit-identical results.
func SetBlobStore(s memo.Store) {
	blobMu.Lock()
	blobStore = s
	blobMu.Unlock()
}

// BlobStore returns the currently installed blob store (nil when detached).
func BlobStore() memo.Store {
	blobMu.Lock()
	defer blobMu.Unlock()
	return blobStore
}

// DisableDiskCache detaches the blob store (tests).
func DisableDiskCache() { SetBlobStore(nil) }

func getStore() memo.Store {
	blobMu.Lock()
	defer blobMu.Unlock()
	return blobStore
}

// searchResult is the cached value of one Best search. cand is nil when the
// search completed but found no valid mapping.
type searchResult struct {
	cand  *Candidate
	stats Stats
}

// bestKey fingerprints everything a Best search's result depends on.
// o must already be normalized (defaults filled in), so that explicit and
// defaulted options key identically.
func bestKey(l *workload.Layer, a *arch.Arch, o *Options) memo.Key {
	var b memo.Builder
	b.Str("mapper.Best/1")
	b.Layer(l)
	b.Arch(a)
	b.Nest(o.Spatial)
	b.Int(int64(o.MaxSplitsPerDim))
	b.Bool(o.Pow2Splits)
	b.Int(int64(o.MaxCandidates))
	b.Uint(uint64(o.Objective))
	b.Bool(o.BWAware)
	b.EnergyTable(o.EnergyTable)
	return b.Key()
}

// diskSearch is the on-disk payload of a successful search: the winning
// temporal nest plus the exact statistics. The Candidate itself is NOT
// stored — it is rebuilt by re-running the deterministic materialization
// path (evaluate) on the stored nest, which reproduces the in-memory result
// bit for bit and re-validates the nest against the live layer/arch (a
// corrupt or stale payload degrades to a miss).
type diskSearch struct {
	Temporal loops.Nest
	Stats    Stats
}

func encodeSearch(c *Candidate, st *Stats) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(diskSearch{Temporal: c.Mapping.Temporal, Stats: *st}); err != nil {
		return nil
	}
	return buf.Bytes()
}

func decodeSearch(l *workload.Layer, a *arch.Arch, o *Options, blob []byte) *searchResult {
	var ds diskSearch
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&ds); err != nil {
		return nil
	}
	c := evaluate(l, a, o, ds.Temporal)
	if c == nil {
		return nil
	}
	return &searchResult{cand: c, stats: ds.Stats}
}

// BestCached is Best behind the process-wide memo cache: the first call for
// a (layer shape, arch, options) key runs the search, concurrent calls for
// the same key join it in flight (singleflight), and later calls are served
// from memory — or from the on-disk store when EnableDiskCache is active.
// Results are bit-identical to Best. The returned Candidate is shared and
// must not be mutated; the Stats are a private copy.
//
// Cancellation: a search that dies with ctx.Err() is neither kept in the
// memo cache nor written to disk (memo.Cache.Do evicts context-error
// entries), so an abandoned request can never poison the cache with a
// partial result. A caller whose ctx fires while COALESCED onto another
// caller's in-flight search returns its own ctx.Err() and leaves that
// search running for the others.
func BestCached(ctx context.Context, l *workload.Layer, a *arch.Arch, opt *Options) (*Candidate, *Stats, error) {
	return BestCachedVia(ctx, l, a, opt, nil)
}

// SearchFunc is a pluggable whole-search executor with runSearch's contract:
// it returns (nil, stats, nil) when the search completed and found no valid
// mapping, and an error only for infrastructure failures (cancellation,
// unreachable shards). An implementation MUST be bit-identical to Best for
// the same (layer, arch, options) — its results are cached under the same
// content-addressed key Best uses, so a divergent executor would poison
// every caller. The sharded fabric (internal/fabric) satisfies this by
// construction (DESIGN.md §13).
type SearchFunc func(ctx context.Context, l *workload.Layer, a *arch.Arch, o *Options) (*Candidate, *Stats, error)

// BestCachedVia is BestCached with the search itself delegated to run (nil
// falls back to the in-process engine). Memoization, coalescing, the blob
// store and the cancellation contract are identical to BestCached — only who
// computes a cold result changes.
func BestCachedVia(ctx context.Context, l *workload.Layer, a *arch.Arch, opt *Options, run SearchFunc) (*Candidate, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opt.normalized()
	k := bestKey(l, a, &o)
	v, err := memo.Default.Do(ctx, k, func(ctx context.Context) (any, error) {
		if s := getStore(); s != nil {
			if blob, ok := s.Get(ctx, k); ok {
				if res := decodeSearch(l, a, &o, blob); res != nil {
					memo.Default.Counters().NoteDiskHit()
					return res, nil
				}
			}
		}
		var best *Candidate
		var stats *Stats
		var err error
		if run != nil {
			best, stats, err = run(ctx, l, a, &o)
		} else {
			best, _, stats, err = runSearch(ctx, l, a, &o, modeBest, nil)
		}
		if err != nil {
			return nil, err
		}
		res := &searchResult{cand: best, stats: *stats}
		if best != nil {
			if s := getStore(); s != nil {
				if blob := encodeSearch(best, stats); blob != nil {
					s.Put(ctx, k, blob)
				}
			}
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res := v.(*searchResult)
	st := res.stats
	if res.cand == nil {
		return nil, &st, NoValidMappingError(l, a, &st)
	}
	return res.cand, &st, nil
}

// annealKey fingerprints an Anneal run: the annealer is seeded and its
// chains are merged deterministically, so the result is a pure function of
// these fields.
func annealKey(l *workload.Layer, a *arch.Arch, o *AnnealOptions) memo.Key {
	// Mirror Anneal's defaulting so explicit and defaulted options key
	// identically.
	iters, restarts, seed := o.Iterations, o.Restarts, o.Seed
	if iters <= 0 {
		iters = 4000
	}
	if restarts <= 0 {
		restarts = 3
	}
	if seed == 0 {
		seed = 1
	}
	var b memo.Builder
	b.Str("mapper.Anneal/1")
	b.Layer(l)
	b.Arch(a)
	b.Nest(o.Spatial)
	b.Int(int64(iters))
	b.Int(int64(restarts))
	b.Int(seed)
	b.Float(o.InitialTemp)
	b.Uint(uint64(o.Objective))
	b.Bool(o.BWAware)
	return b.Key()
}

// AnnealCached is Anneal behind the memo cache (and the disk store when
// enabled), with the same determinism and cancellation contract as
// BestCached.
func AnnealCached(ctx context.Context, l *workload.Layer, a *arch.Arch, opt *AnnealOptions) (*Candidate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt == nil {
		return Anneal(ctx, l, a, opt) // let Anneal report the error
	}
	k := annealKey(l, a, opt)
	evalOpts := &Options{Spatial: opt.Spatial, BWAware: opt.BWAware, Objective: opt.Objective}
	v, err := memo.Default.Do(ctx, k, func(ctx context.Context) (any, error) {
		if s := getStore(); s != nil {
			if blob, ok := s.Get(ctx, k); ok {
				if res := decodeSearch(l, a, evalOpts, blob); res != nil {
					memo.Default.Counters().NoteDiskHit()
					return res, nil
				}
			}
		}
		c, err := Anneal(ctx, l, a, opt)
		if err != nil {
			return nil, err
		}
		if s := getStore(); s != nil {
			var st Stats
			if blob := encodeSearch(c, &st); blob != nil {
				s.Put(ctx, k, blob)
			}
		}
		return &searchResult{cand: c}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*searchResult).cand, nil
}
