// Package otrace is the fleet's distributed-tracing layer: lightweight
// spans with deterministic IDs, W3C-style trace-context propagation across
// servemodel nodes, a bounded per-trace recorder each node exposes at
// GET /v1/trace/{id}, and a coordinator-side assembler that merges the
// per-node span sets into one Perfetto trace plus a critical-path report
// whose per-category durations sum to the coordinator's wall time exactly
// (DESIGN.md §16).
//
// The contract mirrors internal/obs's hook contract: tracing is strictly
// observational. With no active trace in the context every Start* call
// returns a nil *Span, whose methods are all no-ops — the traced code pays
// one context lookup per span site and allocates nothing — and with tracing
// on, spans never touch search state, so results are bit-identical either
// way (guarded by TestFabricTraceBitIdentity in internal/fabric).
//
// Span identity is deterministic, not random: a span's ID is an FNV-1a hash
// of (trace ID, parent span ID, name, key, occurrence ordinal). Two runs of
// the same sharded search produce the same IDs for the same logical spans —
// the plan span, the walk span of a given position range — no matter how
// goroutines interleave, because the ordinal is counted per (parent, name,
// key) and the key carries the distinguishing identity (a shard's position
// range, a node URL). Only genuinely schedule-dependent spans (two identical
// retries of one RPC) fall back to the ordinal.
package otrace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"sync"
	"time"
)

// TraceID names one distributed trace (16 bytes, hex on the wire).
type TraceID [16]byte

// SpanID names one span within a trace (8 bytes, hex on the wire).
type SpanID [8]byte

// IsZero reports an unset trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports an unset span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes the 32-hex-char wire form.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 2*len(t) {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// ParseSpanID decodes the 16-hex-char wire form.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 2*len(id) {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, false
	}
	return id, !id.IsZero()
}

// NewTraceID draws a random trace ID.
func NewTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil {
		// Degrade to a clock-derived ID; uniqueness only matters per node.
		binary.BigEndian.PutUint64(t[:8], uint64(time.Now().UnixNano()))
		binary.BigEndian.PutUint64(t[8:], uint64(time.Now().UnixNano())^0x9e3779b97f4a7c15)
	}
	return t
}

// TraceparentHeader is the W3C trace-context header the fleet propagates.
const TraceparentHeader = "traceparent"

// Traceparent renders the W3C header value: version 00, sampled flag set.
func Traceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// ParseTraceparent decodes a W3C traceparent value ("00-<trace>-<span>-<flags>").
func ParseTraceparent(v string) (TraceID, SpanID, bool) {
	// 2 (version) + 1 + 32 (trace) + 1 + 16 (span) + 1 + 2 (flags)
	if len(v) < 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	t, ok := ParseTraceID(v[3:35])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	s, ok := ParseSpanID(v[36:52])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	return t, s, true
}

// Inject sets the traceparent header from the active span in ctx (no-op
// without one).
func Inject(ctx context.Context, h http.Header) {
	if sp := FromContext(ctx); sp != nil {
		h.Set(TraceparentHeader, Traceparent(sp.trace, sp.id))
	}
}

// Extract reads the traceparent header.
func Extract(h http.Header) (TraceID, SpanID, bool) {
	return ParseTraceparent(h.Get(TraceparentHeader))
}

// fnv1a64 hashes b with FNV-1a (the repository's standard cheap hash).
func fnv1a64(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

const fnvOffset64 = 14695981039346656037

// spanID derives the deterministic ID of the ordinal-th (parent, name, key)
// child.
func spanID(t TraceID, parent SpanID, name, key string, ordinal int) SpanID {
	h := fnv1a64(fnvOffset64, t[:])
	h = fnv1a64(h, parent[:])
	h = fnv1a64(h, []byte(name))
	h = fnv1a64(h, []byte{0})
	h = fnv1a64(h, []byte(key))
	var ord [8]byte
	binary.BigEndian.PutUint64(ord[:], uint64(ordinal))
	h = fnv1a64(h, ord[:])
	var id SpanID
	binary.BigEndian.PutUint64(id[:], h)
	if id.IsZero() { // vanishingly unlikely; zero means "no span"
		id[7] = 1
	}
	return id
}

// Attr is one span attribute. Attributes are small diagnostic strings (a
// position range, a tier name, an outcome) — never load-bearing state.
type Attr struct {
	K, V string
}

// Span is one live span. A nil *Span is valid and turns every method into a
// no-op — the tracing-off fast path.
type Span struct {
	rec    *Recorder
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	cat    string
	start  time.Time

	mu    sync.Mutex
	tid   int
	attrs []Attr
	ended bool
}

// TraceID returns the span's trace (zero for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// ID returns the span's ID (zero for nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr attaches a key=value attribute (last write wins at export).
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{K: k, V: v})
	s.mu.Unlock()
}

// SetTid pins the span to a logical track (a shard lane). 0 lets the
// assembler assign lanes by overlap.
func (s *Span) SetTid(tid int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tid = tid
	s.mu.Unlock()
}

// End closes the span and records it. Safe to call once; later calls no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	tid := s.tid
	attrs := s.attrs
	s.mu.Unlock()
	s.rec.record(recordedSpan{
		trace:  s.trace,
		id:     s.id,
		parent: s.parent,
		name:   s.name,
		cat:    s.cat,
		tid:    tid,
		start:  s.start,
		dur:    end.Sub(s.start),
		attrs:  attrs,
	})
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// FromContext returns the active span, or nil when the context is untraced.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// ContextWith returns ctx with sp as the active span (sp == nil detaches).
func ContextWith(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// StartSpan opens a child of the active span in ctx and returns the child
// context. Without an active span it returns (ctx, nil): tracing off.
func StartSpan(ctx context.Context, name, cat string) (context.Context, *Span) {
	return StartSpanKeyed(ctx, name, cat, "")
}

// StartSpanKeyed is StartSpan with an identity key folded into the span ID:
// spans whose name repeats but whose logical identity differs (one walk span
// per shard position range) stay deterministically distinguishable no matter
// which goroutine runs them first.
func StartSpanKeyed(ctx context.Context, name, cat, key string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.rec.newSpan(parent.trace, parent.id, name, cat, key)
	return ContextWith(ctx, sp), sp
}

// RecordSpan records an already-measured window as a complete child span of
// the active span (no-op when untraced): queue waits and other intervals
// whose start predates the decision to record them.
func RecordSpan(ctx context.Context, name, cat, key string, start time.Time, dur time.Duration, attrs ...Attr) {
	parent := FromContext(ctx)
	if parent == nil {
		return
	}
	sp := parent.rec.newSpan(parent.trace, parent.id, name, cat, key)
	sp.start = start
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, attrs...)
	sp.ended = true
	sAttrs := sp.attrs
	sp.mu.Unlock()
	sp.rec.record(recordedSpan{
		trace:  sp.trace,
		id:     sp.id,
		parent: sp.parent,
		name:   sp.name,
		cat:    sp.cat,
		start:  start,
		dur:    dur,
		attrs:  sAttrs,
	})
}

// IDString returns the active trace's hex ID, or "" — the log-correlation
// helper: call sites append a trace_id attr to slog lines when non-empty.
func IDString(ctx context.Context) string {
	if sp := FromContext(ctx); sp != nil {
		return sp.trace.String()
	}
	return ""
}
