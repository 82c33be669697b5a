// Command perfbench is the repository's benchmark of the prover stack. One
// invocation runs one workload in this process and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics and writes a Chrome trace to
// .bench_build/. --repeat k runs the workload k times in child processes
// (seeds seed..seed+k-1) and prints each end-to-end metric's median and
// quartiles. See README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool   // miniature sizes, for the benchmark's own test
	traceDir string // where a traced run writes its Chrome trace
}

type workloadDef struct {
	name string
	run  func(ctx context.Context, r *run) error
}

var workloads = []workloadDef{
	{"msm-g1", runMSM},
	{"service-mix", runServiceMix},
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metricV `json:"metrics"`
}

type metricV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: msm-g1 or service-mix")
		seed     = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measuring window, in seconds")
		trace    = flag.Int("trace", 0, "1 runs traced: per-layer metrics and a Chrome trace")
		repeat   = flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print quartiles")
	)
	flag.Parse()
	// One P, so that an op's time is the program's CPU work alone: GC
	// marking, the service's workers and the loopback provd workers
	// time-share one thread instead of depending on whether the shared
	// host grants this process a second vCPU at that moment.
	runtime.GOMAXPROCS(1)
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceDir: filepath.Join(".bench_build", "traces")}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *repeat > 0 {
		if err := repeatRuns(cfg, *repeat); err != nil {
			fatalf("%v", err)
		}
		return
	}
	res, err := execute(context.Background(), cfg)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// execute runs one workload and computes its metrics. An error means the
// run could not be carried out at all; failed ops are counted instead.
func execute(ctx context.Context, cfg config) (*result, error) {
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	r := newRun(cfg)
	if err := wl.run(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if r.attempt == 0 {
		return nil, fmt.Errorf("%s: no operation attempted", cfg.workload)
	}
	res := &result{Correct: r.wrong == 0, Attempted: r.attempt, Failed: r.failed, Metrics: map[string]metricV{}}
	defs, vals := endToEnd, r.endToEndValues()
	if cfg.trace {
		r.selfTimes()
		defs, vals = perLayer, r.perLayerValues()
		if err := r.writeChromeTrace(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricV{Value: vals[d.Name], Unit: d.Unit}
	}
	return res, nil
}

// endToEndValues computes the end-to-end metrics of an untraced run. Each
// workload records per op "latency_s" (what the user waits for), "service_s"
// (the time the op occupied the prover) and "points" (the MSM input points
// the op processed). Time metrics are per-class means over the whole
// window, not medians: the host's speed for allocation-heavy code switches
// between two levels about 1.4× apart for tens of seconds at a time, so a
// run's median lands on one level or the other, while the mean moves with
// the share of the window spent at each.
func (r *run) endToEndValues() map[string]float64 {
	service := r.classMean("service_s")
	pps := 0.0
	if service > 0 {
		pps = r.classMean("points") / service
	}
	return map[string]float64{
		"setup_s":             median(r.setup),
		"latency_mean_s":      r.classMean("latency_s"),
		"points_per_s":        pps,
		"heap_retained_bytes": float64(r.heap),
	}
}

// perLayerValues computes the per-layer metrics of a traced run: per-op
// span and counter values as per-class medians summed over classes, then
// the probe and counter values the workload stored in r.layer.
func (r *run) perLayerValues() map[string]float64 {
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.Name] = r.classMedian(d.Name)
	}
	v["core.gpu_load_imbalance"] = r.opMedianNonZero("core.gpu_load_imbalance")
	v["runtime.alloc_bytes_per_op"] = r.classMedian("runtime.alloc_bytes")
	v["runtime.gc_cycles_per_op"] = r.classMedian("runtime.gc_cycles")
	v["trace.latency_mean_s"] = r.classMean("latency_s")
	for k, x := range r.layer {
		v[k] = x
	}
	return v
}

// opMedianNonZero is the median of key over the measured ops that set it
// (a ratio, which does not add across classes).
func (r *run) opMedianNonZero(key string) float64 {
	var xs []float64
	for _, o := range r.ops {
		if x, ok := o.vals[key]; o.measured && ok {
			xs = append(xs, x)
		}
	}
	return median(xs)
}
