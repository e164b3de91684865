package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// steadiness is the A/A mode: it runs every workload rounds times
// in fresh processes, interleaved (the order alternates every round so
// no workload always follows the same neighbour), one seed per round,
// and prints each end-to-end metric's median, quartiles, the quartile
// spread as a share of the median, and the extremes. It fails when any
// run reports an incorrect result.
func steadiness(rounds, seconds int) error {
	var names []string
	for _, w := range catalogue {
		names = append(names, w.name)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for r := 1; r <= rounds; r++ {
		order := slices.Clone(names)
		if r%2 == 0 {
			slices.Reverse(order)
		}
		for _, n := range order {
			cmd := exec.Command(exe, "--workload", n, "--seed", strconv.Itoa(r), "--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s round %d: %w", n, r, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s round %d: result line: %w", n, r, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s round %d: %d of %d cells failed", n, r, res.Failed, res.Attempted)
			}
			if vals[n] == nil {
				vals[n] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				vals[n][k] = append(vals[n][k], m.Value)
				units[k] = m.Unit
			}
			fmt.Printf("round %d %-15s wall_s %.4f\n", r, n, res.Metrics["wall_s"].Value)
		}
	}
	fmt.Printf("\n%-15s %-16s %4s %12s %12s %12s %8s %12s %12s %s\n",
		"workload", "metric", "n", "median", "q1", "q3", "spread", "min", "max", "unit")
	for _, n := range names {
		keys := make([]string, 0, len(vals[n]))
		for k := range vals[n] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xs := vals[n][k]
			q := quartiles(xs)
			spread := 0.0
			if q[1] != 0 {
				spread = (q[2] - q[0]) / q[1]
			}
			fmt.Printf("%-15s %-16s %4d %12.6g %12.6g %12.6g %7.2f%% %12.6g %12.6g %s\n",
				n, k, len(xs), q[1], q[0], q[2], 100*spread, slices.Min(xs), slices.Max(xs), units[k])
		}
	}
	return nil
}
