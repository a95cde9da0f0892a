package serve

// The flight recorder and the per-node trace export. Every finished request
// leaves one bounded-ring summary line (endpoint, tenant, trace id, outcome,
// duration, shard count) behind at GET /v1/debug/requests — enough to
// answer "what has this node been doing" after the fact without scraping
// logs. GET /v1/trace/{id} exports one trace's recorded spans in the otrace
// wire form; a coordinator fetches the same id from every node it touched
// and assembles the fleet-wide view (otrace.Assemble).

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/otrace"
)

// flightRingSize bounds the request ring (FIFO overwrite of the oldest).
const flightRingSize = 256

// flightEntry is one finished request's summary.
type flightEntry struct {
	Time      string  `json:"time"` // RFC3339Nano, request start
	Endpoint  string  `json:"endpoint"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Tenant    string  `json:"tenant"`
	TraceID   string  `json:"trace_id,omitempty"`
	RequestID string  `json:"request_id"`
	Code      int     `json:"code"`
	DurMS     float64 `json:"dur_ms"`
	// Shards counts the fabric work this request fanned out (the
	// coordinator's /v1/search) or executed (/v1/shard: 1 shard).
	Shards int64 `json:"shards,omitempty"`
}

// flightRing is the bounded ring, plus the request-id generator: ids are
// "<4-byte-hex process tag>-<seq>", unique per process and cheap to grep.
type flightRing struct {
	base string
	seq  atomic.Int64

	mu    sync.Mutex
	buf   []flightEntry
	next  int   // overwrite cursor once the ring is full
	total int64 // all-time count (entries seen, not retained)
}

func newFlightRing(n int) *flightRing {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	return &flightRing{base: hex.EncodeToString(b[:]), buf: make([]flightEntry, 0, n)}
}

// nextID mints the X-Request-Id for one admission.
func (f *flightRing) nextID() string {
	return fmt.Sprintf("%s-%d", f.base, f.seq.Add(1))
}

func (f *flightRing) add(e flightEntry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, e)
	} else {
		f.buf[f.next] = e
		f.next = (f.next + 1) % len(f.buf)
	}
	f.total++
}

// snapshot returns the retained entries newest-first plus the all-time total.
func (f *flightRing) snapshot() ([]flightEntry, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.buf)
	out := make([]flightEntry, 0, n)
	start := n - 1
	if n == cap(f.buf) {
		start = (f.next - 1 + n) % n
	}
	for i := 0; i < n; i++ {
		out = append(out, f.buf[(start-i+n)%n])
	}
	return out, f.total
}

// debugRequestsBody is the GET /v1/debug/requests response.
type debugRequestsBody struct {
	// Total counts every request since start; Requests holds the newest
	// flightRingSize of them, newest first.
	Total    int64         `json:"total"`
	Requests []flightEntry `json:"requests"`
}

func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	reqs, total := s.flight.snapshot()
	writeJSON(w, http.StatusOK, debugRequestsBody{Total: total, Requests: reqs})
}

// handleTrace exports one trace's spans as recorded on THIS node. The
// coordinator (or an operator) collects the same trace id from every
// involved node and feeds the set to otrace.Assemble / latmodel -fabrictrace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := otrace.ParseTraceID(id)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed trace id %q (want 32 hex digits)", id))
		return
	}
	wt, ok := s.cfg.Trace.Export(tr)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown trace %s (evicted, or never recorded on this node)", id))
		return
	}
	writeJSON(w, http.StatusOK, wt)
}

// reqNote rides the request context so deep handlers (shard walks, fabric
// runs) can annotate the flight-recorder entry written after they return.
type reqNote struct {
	shards atomic.Int64
}

type noteKey struct{}

func withReqNote(ctx context.Context, n *reqNote) context.Context {
	return context.WithValue(ctx, noteKey{}, n)
}

// noteFrom returns the request's note, or nil outside instrumented requests.
func noteFrom(ctx context.Context) *reqNote {
	n, _ := ctx.Value(noteKey{}).(*reqNote)
	return n
}

func (n *reqNote) addShards(d int64) {
	if n != nil {
		n.shards.Add(d)
	}
}
