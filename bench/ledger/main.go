// Command ledger is the repository's end-to-end performance ledger. It runs
// four seeded workloads against the real stack — in-process network
// evaluation cold and warm, an open-loop HTTP mix against a servemodel
// child, and a two-node sharded fabric search — once untraced for the
// end-to-end metrics and once traced for a per-layer breakdown whose parts
// sum to the wall time. Every op's output is checked against bench/golden;
// a mismatch is a failed op.
//
// Usage, from the bench directory:
//
//	go run ./ledger -seed 1 -out run.json           # every workload, both runs
//	go run ./ledger -workload serve-mix -seed 2 -trace 0
//	go run ./ledger compare parent*.json -- change*.json
//
// With -workload the last line of standard output is one JSON object with
// the run's verdict and metrics. The exit status is non-zero when any op
// failed or a run was invalid. README.md holds the metric dictionary, the
// calibration record and the baseline runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/otrace"
)

// harness carries one invocation's settings to the workloads.
type harness struct {
	seed      int64
	window    time.Duration // measured window of one run
	setupReps int           // set-ups per run; setup_s is their median
	minOps    int           // closed loops run at least this many ops
	maxLag    time.Duration // an open loop released later than this at p99 is invalid
	spawn     spawnFunc     // starts a servemodel node (nil: in-process workloads only)
	perfetto  string        // file prefix for each traced run's first op as a Chrome trace ("" = none)
}

// keepTrace writes a traced run's first op as <perfetto>-<workload>.json,
// a Chrome trace Perfetto opens, with the critical-path report beside it.
func (h *harness) keepTrace(workload string, a *otrace.Assembled) error {
	if h.perfetto == "" {
		return nil
	}
	b, err := a.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(h.perfetto+"-"+workload+".json", b, 0o644)
}

// outcome is one run's result.
type outcome struct {
	attempted int
	failed    int
	invalid   bool
	problems  []string
	metrics   map[string]float64
}

func newOutcome(defs ...[]metricDef) *outcome {
	o := &outcome{metrics: map[string]float64{}}
	for _, list := range defs {
		for _, m := range list {
			o.metrics[m.name] = 0
		}
	}
	return o
}

// fail counts a failed op and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note(format, args...)
}

// invalidate marks the run's measurement untrustworthy.
func (o *outcome) invalidate(format string, args ...any) {
	o.invalid = true
	o.note("invalid run: "+format, args...)
}

func (o *outcome) note(format string, args ...any) {
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool { return o.failed == 0 && !o.invalid }

// workloadDef is one registered workload; why is repeated in BENCHMARK.json.
type workloadDef struct {
	name  string
	why   string
	nodes bool // runs servemodel nodes
	run   func(ctx context.Context, h *harness, traced bool) (*outcome, error)
}

var workloads = []workloadDef{
	{"net-cold", "every network evaluation pays its full per-layer searches, so mapper and core do the work", false,
		func(ctx context.Context, h *harness, traced bool) (*outcome, error) {
			return runNetLoop(ctx, h, true, traced)
		}},
	{"net-warm", "the same evaluations served from a warm memo: the mapper does nothing, control for mapper changes", false,
		func(ctx context.Context, h *harness, traced bool) (*outcome, error) {
			return runNetLoop(ctx, h, false, traced)
		}},
	{"serve-mix", "open-loop HTTP mix of memo hits and fresh searches at fixed rates: serve, admission and memo under queueing", true,
		runServeMix},
	{"fabric-2node", "sharded search over two single-core servemodel nodes: real parallel plan, steal and merge wall time", true,
		runFabric},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

// runRecord is the -out file: one entry per run made.
type runRecord struct {
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runResult `json:"runs"`
}

type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Valid     bool               `json:"valid"`
	Metrics   map[string]float64 `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	var (
		only    = fs.String("workload", "", "run one workload (default: all of them)")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 20, "measured window of each run, in seconds")
		trace   = fs.Int("trace", -1, "0: untraced run only, 1: traced run only, -1: both")
		out     = fs.String("out", "", "write every run's metrics as JSON to this file")
		rootDir = fs.String("root", "", "repository root (default: found upward from the working directory)")
		pftto   = fs.String("perfetto", "", "write each traced run's first op to PREFIX-<workload>.json for Perfetto")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "ledger: -seconds must be positive and -trace one of -1, 0, 1")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "ledger: unknown workload %q\n", *only)
		return 2
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h := &harness{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), setupReps: 5, minOps: 100, maxLag: 5 * time.Millisecond, perfetto: *pftto}
	cleanup, err := h.prepare(ctx, *rootDir, selected)
	defer cleanup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
		return 1
	}

	rec := runRecord{Seed: *seed, Seconds: *seconds}
	status := 0
	var last *outcome
	var lastTraced bool
	for _, w := range selected {
		for _, traced := range modes {
			o, err := w.run(ctx, h, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ledger: %s: %v\n", w.name, err)
				return 1
			}
			printOutcome(os.Stdout, w.name, traced, o)
			if !o.correct() {
				status = 1
			}
			rec.Runs = append(rec.Runs, runResult{Workload: w.name, Traced: traced, Attempted: o.attempted,
				Failed: o.failed, Valid: !o.invalid, Metrics: o.metrics})
			last, lastTraced = o, traced
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ledger: write %s: %v\n", *out, err)
			return 1
		}
	}
	if *only != "" && len(modes) == 1 {
		if err := printVerdict(os.Stdout, last, lastTraced); err != nil {
			fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
			return 1
		}
	}
	return status
}

// prepare finds the repository and, when a selected workload needs
// servemodel nodes, builds the binary once into a temporary directory under
// .bench_build. The returned clean-up removes it.
func (h *harness) prepare(ctx context.Context, rootFlag string, selected []workloadDef) (func(), error) {
	needNodes := false
	for _, w := range selected {
		needNodes = needNodes || w.nodes
	}
	if !needNodes {
		return func() {}, nil
	}
	root, err := findRoot(rootFlag)
	if err != nil {
		return func() {}, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return func() {}, err
	}
	dir, err := os.MkdirTemp(base, "ledger-")
	if err != nil {
		return func() {}, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	bin, err := buildServemodel(ctx, root, dir)
	if err != nil {
		return cleanup, err
	}
	h.spawn = servemodelSpawner(bin, dir)
	return cleanup, nil
}

// findRoot returns dir, or the nearest directory at or above the working
// directory whose go.mod declares module repro.
func findRoot(dir string) (string, error) {
	if dir != "" {
		return filepath.Abs(dir)
	}
	d, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			first, _, _ := strings.Cut(string(b), "\n")
			if strings.TrimSpace(first) == "module repro" {
				return d, nil
			}
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", errors.New("repository root (go.mod of module repro) not found above the working directory")
		}
		d = parent
	}
}

// printOutcome writes one "name value unit" line per metric.
func printOutcome(w io.Writer, name string, traced bool, o *outcome) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s (%s): %d attempted, %d failed, valid=%v\n", name, mode, o.attempted, o.failed, !o.invalid)
	for _, p := range o.problems {
		fmt.Fprintf(w, "#   %s\n", p)
	}
	keys := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s %s\n", k, fmtValue(o.metrics[k]), unitOf(k))
	}
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// printVerdict writes the one-line JSON result: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
func printVerdict(w io.Writer, o *outcome, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.name] = value{o.metrics[m.name], m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
