package main

// ledger compare: the paired-run rule for a change against its parent,
// applied per workload × end-to-end metric with the bounds BENCHMARK.json
// fixes. Run files are paired by position (parent i with change i), so run
// the sides alternately, the parent first in every other pair.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts, per the rule in README.md.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict judges one metric from paired parent and change values.
//   - improved: at least 9 of 10 pairs won (ties win for neither) and the
//     medians differ, in the better direction, by more than the parent's
//     interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than bound (a share of the parent's median);
//   - unresolved: the parent's interquartile range is wider than the bound,
//     unless every change run reads better than every parent run;
//   - unchanged: otherwise.
func verdict(parent, change []float64, higher bool, bound float64) (string, int, error) {
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	q1, q3, err := quartiles(parent)
	if err != nil {
		return "", 0, err
	}
	pm, cm := median(parent), median(change)
	pairs := min(len(parent), len(change))
	wins := 0
	for i := range pairs {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if pairs >= 10 && 10*wins >= 9*pairs && better(cm, pm) && math.Abs(cm-pm) > q3-q1 {
		return improved, wins, nil
	}
	worse := (cm - pm) / pm
	if higher {
		worse = -worse
	}
	if worse > bound {
		return regressed, wins, nil
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	if (q3-q1)/math.Abs(pm) > bound && !allBetter {
		return unresolved, wins, nil
	}
	return unchanged, wins, nil
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("ledger compare", flag.ContinueOnError)
	specPath := fs.String("bench", "", "BENCHMARK.json (default: at the repository root)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: ledger compare [-bench BENCHMARK.json] PARENT.json... -- CHANGE.json...")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var parentFiles, changeFiles []string
	side := &parentFiles
	for _, a := range fs.Args() {
		if a == "--" {
			side = &changeFiles
			continue
		}
		*side = append(*side, a)
	}
	if len(parentFiles) < 2 || len(changeFiles) < 2 {
		fs.Usage()
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledger compare: %v\n", err)
		return 2
	}
	parents, err := readRuns(parentFiles)
	if err == nil {
		var changes []runRecord
		if changes, err = readRuns(changeFiles); err == nil {
			return compareRuns(w, spec, parents, changes)
		}
	}
	fmt.Fprintf(os.Stderr, "ledger compare: %v\n", err)
	return 2
}

// compareRuns prints the verdict table and returns 1 when any metric
// regressed.
func compareRuns(w io.Writer, spec *benchSpec, parents, changes []runRecord) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tverdict")
	status := 0
	for _, wl := range workloads {
		pf, pa := failShare(parents, wl.name)
		cf, ca := failShare(changes, wl.name)
		if pa == 0 && ca == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			p, c := values(parents, wl.name, m.Name), values(changes, wl.name, m.Name)
			if len(p) < 2 || len(c) < 2 {
				fmt.Fprintf(tw, "%s\t%s\t%d runs\t%d runs\t\t\tmissing\n", wl.name, m.Name, len(p), len(c))
				continue
			}
			v, wins, err := verdict(p, c, m.Better == "higher", m.Bound)
			if err != nil {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t%v\n", wl.name, m.Name, err)
				continue
			}
			if v == regressed {
				status = 1
			}
			pq1, pq3, _ := quartiles(p)
			cq1, cq3, _ := quartiles(c)
			pm, cm := median(p), median(c)
			fmt.Fprintf(tw, "%s\t%s\t%s [%s, %s] %s\t%s [%s, %s]\t%+.1f%%\t%d/%d\t%s\n",
				wl.name, m.Name, fmtValue(pm), fmtValue(pq1), fmtValue(pq3), m.Unit,
				fmtValue(cm), fmtValue(cq1), fmtValue(cq3), 100*(cm-pm)/pm,
				wins, min(len(p), len(c)), v)
		}
		fmt.Fprintf(tw, "%s\tfailed ops\t%d of %d\t%d of %d\t\t\t\n", wl.name, pf, pa, cf, ca)
	}
	tw.Flush()
	return status
}

// values collects one metric of one workload's untraced runs, in file order.
func values(runs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		for _, res := range r.Runs {
			if res.Workload == workload && !res.Traced && res.Valid {
				if v, ok := res.Metrics[metric]; ok {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// failShare sums a workload's failed and attempted ops over every run.
func failShare(runs []runRecord, workload string) (failed, attempted int) {
	for _, r := range runs {
		for _, res := range r.Runs {
			if res.Workload == workload {
				failed += res.Failed
				attempted += res.Attempted
			}
		}
	}
	return failed, attempted
}

func readRuns(files []string) ([]runRecord, error) {
	out := make([]runRecord, 0, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func readSpec(path string) (*benchSpec, error) {
	if path == "" {
		root, err := findRoot("")
		if err != nil {
			return nil, err
		}
		path = filepath.Join(root, "BENCHMARK.json")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return nil, errors.New(path + ": no end_to_end metrics")
	}
	return &s, nil
}
