package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// bounds reads each end-to-end metric's direction and bound from
// BENCHMARK.json, the contract later changes are judged by.
type bound struct {
	better string
	bound  float64
}

func readBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]bound)
	for _, m := range doc.EndToEnd {
		out[m.Name] = bound{m.Better, m.Bound}
	}
	return out, nil
}

// loadReports reads one result file, or every *.json result file of a
// directory, keyed by workload and mode.
func loadReports(path string) (map[string]*report, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := make(map[string]*report)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil || rep.Workload == "" {
			continue // a span file, not a result
		}
		out[fmt.Sprintf("%s.trace%d", rep.Workload, rep.Trace)] = &rep
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// metricSpread is IQR/median of the samples behind a reported median.
func metricSpread(m metricValue) float64 {
	if m.Q1 == nil || m.Q3 == nil || m.Value == 0 {
		return 0
	}
	return (*m.Q3 - *m.Q1) / m.Value
}

// compareResults prints one row per workload and metric of b against a
// and returns the offenders: simulated metrics and exact counters that
// differ at all, bounded host metrics whose median got worse by more
// than BENCHMARK.json allows, and runs that were not correct. A host
// metric whose own iteration spread exceeds its bound is unresolved,
// not unchanged; unbounded per-layer host metrics are shown for
// information.
func compareResults(w io.Writer, manifestPath, a, b string) ([]string, error) {
	bounds, err := readBounds(manifestPath)
	if err != nil {
		return nil, err
	}
	before, err := loadReports(a)
	if err != nil {
		return nil, err
	}
	after, err := loadReports(b)
	if err != nil {
		return nil, err
	}

	var keys []string
	for key := range before {
		if after[key] != nil {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return nil, fmt.Errorf("%s and %s share no result file", a, b)
	}

	var offenders []string
	fmt.Fprintf(w, "%-8s %-36s %16s %16s %9s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, key := range keys {
		ra, rb := before[key], after[key]
		if ra.Seed != rb.Seed {
			fmt.Fprintf(w, "%-8s seeds differ (%d, %d): simulated metrics are held to equality all the same\n",
				ra.Workload, ra.Seed, rb.Seed)
		}
		for _, side := range []*report{ra, rb} {
			if !side.Correct {
				offenders = append(offenders, side.Workload+"/correct")
				fmt.Fprintf(w, "%-8s run not correct: %d of %d jobs failed %v\n", side.Workload, side.Failed, side.Attempted, side.Notes)
			}
		}
		names := make([]string, 0, len(ra.Metrics))
		for name := range ra.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma := ra.Metrics[name]
			mb, ok := rb.Metrics[name]
			if !ok {
				offenders = append(offenders, ra.Workload+"/"+name)
				fmt.Fprintf(w, "%-8s %-36s %16.6g %16s %9s  missing\n", ra.Workload, name, ma.Value, "-", "-")
				continue
			}
			change := 0.0
			if ma.Value != 0 {
				change = mb.Value/ma.Value - 1
			}
			verdict := "info"
			bd, bounded := bounds[name]
			switch {
			case metricByName[name].Exact:
				verdict = "identical"
				if ma.Value != mb.Value {
					verdict = "DIFFERS"
					offenders = append(offenders, ra.Workload+"/"+name)
				}
			case bounded:
				worse := change
				if bd.better == higher {
					worse = -change
				}
				switch {
				case worse > bd.bound:
					verdict = fmt.Sprintf("WORSE (bound %.0f%%)", 100*bd.bound)
					offenders = append(offenders, ra.Workload+"/"+name)
				case metricSpread(ma) > bd.bound || metricSpread(mb) > bd.bound:
					verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*metricSpread(ma), 100*metricSpread(mb))
				default:
					verdict = "within bound"
				}
			}
			fmt.Fprintf(w, "%-8s %-36s %16.6g %16.6g %+8.2f%%  %s\n", ra.Workload, name, ma.Value, mb.Value, 100*change, verdict)
		}
	}
	return offenders, nil
}
