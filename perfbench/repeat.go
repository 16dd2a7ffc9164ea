package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runLine is the JSON object a run prints as its last line.
type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// repeatRuns runs the workload n times, each in a child process of this
// binary with its own seed, one after another, and prints each metric's
// median, quartiles and spread ((q3 - q1) / median) plus the failed share
// of every run. This is how the bounds in BENCHMARK.json are chosen.
func repeatRuns(workload string, seed int64, seconds float64, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for k := 0; k < n; k++ {
		s := seed + int64(k)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var rl runLine
		if err := json.Unmarshal(lines[len(lines)-1], &rl); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		if !rl.Correct {
			return fmt.Errorf("run with seed %d: outputs failed their checks", s)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", rl.Failed, rl.Attempted))
		for _, name := range slices.Sorted(maps.Keys(rl.Metrics)) {
			vals[name] = append(vals[name], rl.Metrics[name].Value)
			units[name] = rl.Metrics[name].Unit
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, lines[len(lines)-1])
	}
	names := slices.Sorted(maps.Keys(vals))
	fmt.Printf("%s, %d runs, failed/attempted: %v\n", workload, n, shares)
	fmt.Printf("%-36s %-6s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, med, q3 := quartiles(vals[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-36s %-6s %14.6g %14.6g %14.6g %7.2f%%\n", name, units[name], q1, med, q3, 100*spread)
	}
	return nil
}
