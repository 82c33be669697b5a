package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload k times, each in a child process of this
// binary with seeds seed, seed+1, ..., and prints every end-to-end
// metric's median, quartiles and quartile spread (IQR ÷ median). With
// --trace 1 it then makes k traced runs with the same seeds and prints
// the per-layer medians and the tracing overhead on latency_mean_s.
func repeatRuns(cfg config, k int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	collect := func(trace int) (map[string][]float64, error) {
		vals := map[string][]float64{}
		for i := 0; i < k; i++ {
			seed := cfg.seed + int64(i)
			cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("seed %d: %w", seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
				return nil, fmt.Errorf("seed %d: %w", seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				return nil, fmt.Errorf("seed %d: correct=%v failed=%d of %d", seed, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		return vals, nil
	}
	plain, err := collect(0)
	if err != nil {
		return err
	}
	fmt.Printf("%s, %d runs of %gs, seeds %d..%d\n", cfg.workload, k, cfg.seconds, cfg.seed, cfg.seed+int64(k)-1)
	printQuartiles(endToEnd, plain)
	if !cfg.trace {
		return nil
	}
	traced, err := collect(1)
	if err != nil {
		return err
	}
	printQuartiles(perLayer, traced)
	fmt.Printf("tracing overhead on latency_mean_s: %+.1f%%\n",
		100*(median(traced["trace.latency_mean_s"])/median(plain["latency_mean_s"])-1))
	return nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) (exclusive method) computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		pos := float64(j*(n+1)) / 4
		i := min(max(int(pos), 1), n-1)
		frac := pos - float64(i)
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return at(1), at(2), at(3)
}

func printQuartiles(defs []metricDef, vals map[string][]float64) {
	fmt.Printf("%-32s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, d := range defs {
		q1, q2, q3 := quartiles(vals[d.Name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-32s %14.6g %14.6g %14.6g %7.1f%%  %s\n", d.Name, q2, q1, q3, 100*spread, d.Unit)
	}
}
