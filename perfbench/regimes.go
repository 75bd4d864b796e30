package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// regime is one workload's shape at one seed: what a held-out seed must
// reproduce for the workload to stay in the regime it was chosen for.
type regime struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	CSVBytes  int     `json:"csv_bytes"`
	CoverSize int     `json:"cover_size"`
	Cycles    int     `json:"cycles"`
	Dominant  string  `json:"dominant_layer"`
	Share     float64 `json:"dominant_share"` // of the traced discovery op
}

// regimes runs a short traced run per workload and seed and prints each
// regime. With -write it stores them; with -check it compares them to a
// stored file and exits 1 when a seed leaves its workload's regime:
// another dominant layer, a cycle count outside the stored range, a
// cover size more than 10% off the stored mean, or a dominant share more
// than 0.1 off it.
func regimes(args []string) int {
	fs := flag.NewFlagSet("regimes", flag.ContinueOnError)
	seeds := fs.String("seeds", "1,2,3", "comma-separated seeds")
	seconds := fs.Float64("seconds", 5, "traced window per run")
	write := fs.String("write", "", "store the regimes in this file")
	check := fs.String("check", "", "compare against regimes stored in this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var got []regime
	for _, w := range workloads {
		for _, s := range strings.Split(*seeds, ",") {
			seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "regimes: bad seed", s)
				return 2
			}
			o, err := w.run(config{seed: seed, seconds: *seconds, trace: true})
			if err == nil && o.failed > 0 {
				err = fmt.Errorf("%d of %d ops failed", o.failed, o.attempted)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "regimes: %s seed %d: %v\n", w.name, seed, err)
				return 1
			}
			r := regime{Workload: w.name, Seed: seed,
				Rows: o.extra["rows"].(int), Cols: o.extra["cols"].(int), CSVBytes: o.extra["csv_bytes"].(int),
				CoverSize: int(o.metrics["cover.pcover_size"]), Cycles: int(o.metrics["core.cycles"])}
			for k, v := range o.extra["layer_share"].(map[string]float64) {
				if v > r.Share {
					r.Dominant, r.Share = k, v
				}
			}
			fmt.Printf("%-15s seed %-3d rows %-6d cols %-3d csv %-9d cover %-7d cycles %d  dominant %s %.2f\n",
				r.Workload, r.Seed, r.Rows, r.Cols, r.CSVBytes, r.CoverSize, r.Cycles, r.Dominant, r.Share)
			got = append(got, r)
		}
	}
	if *write != "" {
		blob, err := json.MarshalIndent(got, "", " ")
		if err == nil {
			err = os.WriteFile(*write, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "regimes:", err)
			return 1
		}
	}
	if *check == "" {
		return 0
	}
	blob, err := os.ReadFile(*check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "regimes:", err)
		return 2
	}
	var stored []regime
	if err := json.Unmarshal(blob, &stored); err != nil {
		fmt.Fprintln(os.Stderr, "regimes:", err)
		return 2
	}
	bad := 0
	for _, r := range got {
		var n, minCycles, maxCycles int
		var cover, share float64
		var dominant string
		for _, s := range stored {
			if s.Workload != r.Workload {
				continue
			}
			if n == 0 || s.Cycles < minCycles {
				minCycles = s.Cycles
			}
			maxCycles = max(maxCycles, s.Cycles)
			n++
			cover += float64(s.CoverSize)
			share += s.Share
			dominant = s.Dominant
		}
		if n == 0 {
			continue
		}
		cover, share = cover/float64(n), share/float64(n)
		if r.Dominant != dominant || r.Cycles < minCycles || r.Cycles > maxCycles ||
			math.Abs(float64(r.CoverSize)-cover) > 0.1*cover || math.Abs(r.Share-share) > 0.1 {
			fmt.Printf("%s seed %d left the regime: dominant %s %.2f, cover %d, %d cycles; stored %s %.2f, cover %.0f, %d–%d cycles\n",
				r.Workload, r.Seed, r.Dominant, r.Share, r.CoverSize, r.Cycles, dominant, share, cover, minCycles, maxCycles)
			bad++
		}
	}
	if bad > 0 {
		fmt.Println("regimes: FAIL")
		return 1
	}
	fmt.Println("regimes: ok")
	return 0
}
