// Command servemodel runs the uniform latency model as a long-lived HTTP
// service (package serve): single-layer evaluation, full mapping searches
// and whole-network evaluation over the bundled workloads, backed by the
// process-wide memo cache (and the on-disk store with -cachedir) so
// identical requests coalesce and repeats answer from cache.
//
// Usage:
//
//	servemodel [-addr :8080] [-cachedir auto] [-maxconcurrent N]
//	           [-maxqueue N] [-timeout 30s] [-maxtimeout 5m]
//	           [-draintimeout 10s] [-debugaddr localhost:6060]
//	           [-loglevel debug|info|warn|error]
//	           [-peers http://n1:8080,http://n2:8080] [-remotememo URL]
//	           [-tenantweights fast=3,batch=1]
//
// Endpoints: POST /v1/eval, /v1/search, /v1/explain, /v1/network, /v1/shard
// (execute one shard of a fanned-out search), /v1/memo/{get,put} (fleet-
// shared memo tier); GET /healthz, /metrics (Prometheus text format) and
// /v1/search/{id}/progress (live search telemetry). SIGINT/SIGTERM trigger a graceful
// shutdown that drains in-flight searches for -draintimeout before
// force-canceling them. -debugaddr exposes net/http/pprof on a separate,
// opt-in listener; the file-based -cpuprofile/-memprofile flags from
// package prof work too.
//
// Fleet flags: -peers lists OTHER servemodel nodes eligible to execute
// shards of this node's sharded searches (never list the node itself);
// -remotememo points the local memo tiers at a peer's /v1/memo endpoints so
// the fleet shares warm search results; -tenantweights sets per-tenant
// weighted-fair admission shares keyed by the X-Tenant request header.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/prof"
	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address for the API")
		debugAddr  = flag.String("debugaddr", "", "optional listen address for net/http/pprof (e.g. localhost:6060)")
		cacheDir   = flag.String("cachedir", "", `on-disk search cache: directory path, or "auto" for the user cache dir (empty = memory only)`)
		maxConc    = flag.Int("maxconcurrent", 0, "max concurrently running searches (default: the worker budget)")
		maxQueue   = flag.Int("maxqueue", 0, "max requests queued for a search slot before shedding 429 (default: 4x maxconcurrent)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request deadline when the request carries no timeout_ms")
		maxTo      = flag.Duration("maxtimeout", 5*time.Minute, "cap on client-requested timeouts")
		drainTo    = flag.Duration("draintimeout", 10*time.Second, "graceful-shutdown drain window for in-flight searches")
		logLevel   = flag.String("loglevel", "info", "log level: debug, info, warn or error")
		peers      = flag.String("peers", "", "comma-separated base URLs of OTHER servemodel nodes that may execute search shards (do not list this node)")
		remoteMemo = flag.String("remotememo", "", "base URL of a peer whose /v1/memo endpoints back a shared memo tier")
		tenantWts  = flag.String("tenantweights", "", `per-tenant admission weights, e.g. "fast=3,batch=1" (unlisted tenants weigh 1)`)
		nodeName   = flag.String("nodename", "", `node label on spans in assembled fleet traces (default "servemodel"; give each node a distinct name)`)
	)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatal("%v", err)
	}
	defer prof.Stop()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal("bad -loglevel %q (want debug, info, warn or error)", *logLevel)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	bi := prof.Build()
	log.Info("build", "go", bi.GoVersion, "revision", bi.Revision, "modified", bi.Modified)
	// Compose the memo tiers this node's own searches use: the local tier
	// (disk when -cachedir is set, bounded memory otherwise) first, then the
	// optional remote fleet tier. The LOCAL tier is also what /v1/memo
	// serves to peers — never the remote one, which would bounce fleet
	// traffic through this node.
	var localTier memo.Store
	if *cacheDir != "" {
		d, dir, err := mapper.OpenDiskStore(*cacheDir)
		if err != nil {
			fatal("cachedir: %v", err)
		}
		localTier = d
		log.Info("disk cache enabled", "dir", dir)
	} else {
		localTier = memo.NewMem(0)
	}
	// Each tier is traced individually (not the tiered composite), so span
	// and metric tier labels come out as mem/disk/remote rather than one
	// opaque "tiered".
	localTier = memo.WithTrace(localTier)
	tiers := []memo.Store{localTier}
	if *remoteMemo != "" {
		tiers = append(tiers, memo.WithTrace(memo.NewRemote(*remoteMemo, mapper.DiskVersion(), nil)))
		log.Info("remote memo tier enabled", "base", *remoteMemo, "version", mapper.DiskVersion())
	}
	mapper.SetBlobStore(memo.Tiered(tiers...))

	weights, err := parseTenantWeights(*tenantWts)
	if err != nil {
		fatal("tenantweights: %v", err)
	}
	peerList := splitList(*peers)
	if len(peerList) > 0 {
		log.Info("shard peers configured", "peers", peerList)
	}

	s := serve.New(serve.Config{
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTo,
		Logger:         log,
		TenantWeights:  weights,
		Peers:          peerList,
		MemoStore:      localTier,
		MemoVersion:    mapper.DiskVersion(),
		NodeName:       *nodeName,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: prof.DebugMux()}
		go func() {
			log.Info("pprof listener", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("pprof listener failed", "err", err)
			}
		}()
		defer dbg.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Info("serving", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		prof.Stop()
		fatal("serve: %v", err)
	case <-ctx.Done():
		log.Info("shutdown signal; draining", "window", *drainTo)
		if err := s.Shutdown(srv, *drainTo); err != nil {
			log.Warn("shutdown incomplete", "err", err)
		}
	}
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseTenantWeights parses "name=weight,name=weight".
func parseTenantWeights(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, p := range splitList(s) {
		name, val, ok := strings.Cut(p, "=")
		if !ok {
			return nil, fmt.Errorf("bad entry %q (want tenant=weight)", p)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight %q for tenant %q (want a positive number)", val, name)
		}
		out[strings.TrimSpace(name)] = w
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servemodel: "+format+"\n", args...)
	prof.Stop()
	os.Exit(1)
}
