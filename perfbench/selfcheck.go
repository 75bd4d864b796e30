package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// consistent reports where BENCHMARK.json and the metric tables of this
// program disagree.
func (b benchmarkFile) consistent() []string {
	var bad []string
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		bad = append(bad, "metric counts differ from the program's tables")
	}
	for i := 0; i < len(b.EndToEnd) && i < len(endToEnd); i++ {
		if b.EndToEnd[i].Name != endToEnd[i].name || b.EndToEnd[i].Unit != endToEnd[i].unit {
			bad = append(bad, "end_to_end "+b.EndToEnd[i].Name)
		}
	}
	for i := 0; i < len(b.PerLayer) && i < len(perLayer); i++ {
		if b.PerLayer[i].Name != perLayer[i].name || b.PerLayer[i].Unit != perLayer[i].unit {
			bad = append(bad, "per_layer "+b.PerLayer[i].Name)
		}
	}
	for i, w := range b.Workloads {
		if i >= len(workloads) || w.Name != workloads[i].name {
			bad = append(bad, "workload "+w.Name)
		}
	}
	return bad
}

// selfCheck measures the benchmark's own steadiness: -runs seeds (1, 2,
// …) per workload, in -sets sets, each run a fresh process started from
// the checkout root, where BENCHMARK.json is. For every
// end-to-end metric it prints each set's quartile spread as a share of
// the median, and the second set's median shift against the first, next
// to the metric's bound. It exits 1 when a run fails or a figure exceeds
// its bound (spread of setup_s excepted: set-up is short, and only its
// median shift is held to the bound).
func selfCheck(args []string) int {
	fs := flag.NewFlagSet("self-check", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs (seeds) per workload and set")
	sets := fs.Int("sets", 2, "sets of runs to compare")
	only := fs.String("workloads", "", "comma-separated workloads (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "self-check:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "self-check:", err)
		return 2
	}
	if bad := bf.consistent(); len(bad) > 0 {
		fmt.Fprintln(os.Stderr, "self-check: BENCHMARK.json disagrees with the program:", strings.Join(bad, "; "))
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "self-check:", err)
		return 2
	}
	names := strings.Split(*only, ",")
	if *only == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	report := map[string]any{}
	for _, name := range names {
		// values[set][metric] lists one value per run.
		values := make([]map[string][]float64, *sets)
		for set := 0; set < *sets; set++ {
			values[set] = map[string][]float64{}
			for r := 0; r < *runs; r++ {
				seed := int64(r + 1)
				res, err := runChild(exe, name, seed, bf.RunSeconds)
				if err != nil {
					fmt.Printf("%s seed %d: %v\n", name, seed, err)
					ok = false
					continue
				}
				if !res.Correct || res.Failed != 0 {
					fmt.Printf("%s seed %d: correct=%v failed=%d\n", name, seed, res.Correct, res.Failed)
					ok = false
				}
				for k, v := range res.Metrics {
					values[set][k] = append(values[set][k], v.Value)
				}
			}
		}
		rows := map[string]any{}
		fmt.Printf("\n%s (%d runs x %d sets, %d s each)\n", name, *runs, *sets, bf.RunSeconds)
		fmt.Printf("  %-14s %7s  %-30s %s\n", "metric", "bound", "spread per set (IQR/median)", "median shift")
		for _, m := range bf.EndToEnd {
			var spreads []string
			var meds []float64
			var vals [][]float64
			for set := 0; set < *sets; set++ {
				vals = append(vals, values[set][m.Name])
				q1, q2, q3 := quartiles(values[set][m.Name])
				spread := 0.0
				if q2 != 0 {
					spread = (q3 - q1) / q2
				}
				flag := ""
				if m.Name != "setup_s" && spread > m.Bound {
					flag, ok = "!", false
				} else if spread > m.Bound/3 {
					flag = "~" // within the bound but above a third of it
				}
				spreads = append(spreads, fmt.Sprintf("%.3f%s", spread, flag))
				meds = append(meds, q2)
			}
			shift := ""
			worse := 0.0
			if len(meds) > 1 && meds[0] != 0 {
				worse = (meds[1] - meds[0]) / meds[0]
				if m.Better == "higher" {
					worse = -worse
				}
				shift = fmt.Sprintf("%+.3f", worse)
				if worse > m.Bound {
					shift += "!"
					ok = false
				}
			}
			fmt.Printf("  %-14s %7.3f  %-30s %s   (median %.4g %s)\n", m.Name, m.Bound, strings.Join(spreads, " "), shift, meds[0], m.Unit)
			rows[m.Name] = map[string]any{"bound": m.Bound, "spreads": spreads, "medians": meds, "worse_shift": worse, "values": vals}
		}
		report[name] = rows
	}
	if blob, err := json.MarshalIndent(report, "", " "); err == nil {
		_ = os.MkdirAll(outDir(), 0o755)
		_ = os.WriteFile(filepath.Join(outDir(), "self-check.json"), blob, 0o644)
	}
	if !ok {
		fmt.Println("\nself-check: FAIL")
		return 1
	}
	fmt.Println("\nself-check: ok")
	return 0
}

// runChild runs one benchmark process and parses its last output line.
func runChild(exe, name string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}
