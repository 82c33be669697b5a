package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// run is the state of one benchmark invocation: the per-op records every
// metric is computed from, the spans of a traced run, and the outcome
// counters.
type run struct {
	cfg config

	origin time.Time

	mu      sync.Mutex
	ops     []*opRec
	spans   []span // kept only when cfg.trace
	nextID  int64
	layer   map[string]float64 // per-layer values not derived from ops (probes, counters)
	setup   []float64          // wall seconds of each repeated set-up
	heap    uint64             // live heap after set-up and warm-up
	attempt int
	failed  int
	wrong   int // failed ops whose output was checked and found wrong
}

// opRec is one operation: an MSM, a proof, a service job or an outsourced
// MSM request. Its class is the workload's size class (curve or circuit);
// every time metric is a per-class median or mean of some value in vals.
type opRec struct {
	id       int64
	class    string
	measured bool // false for warm-up ops, which no metric reads
	vals     map[string]float64
}

// span is one traced interval at a layer boundary. Modeled spans carry
// gpusim-simulated durations laid out from the real MSM's start; they
// never count as children when self time is computed.
type span struct {
	id, parent, op int64
	layer, name    string
	start, end     time.Duration // since run.origin
	modeled        bool
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, origin: time.Now(), layer: map[string]float64{}}
}

// newOp starts an op record; measured says whether metrics may read it.
func (r *run) newOp(class string, measured bool) *opRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	op := &opRec{id: r.nextID, class: class, measured: measured, vals: map[string]float64{}}
	r.ops = append(r.ops, op)
	return op
}

// add accumulates v into the op's value under key.
func (r *run) add(op *opRec, key string, v float64) {
	if op == nil {
		return
	}
	r.mu.Lock()
	op.vals[key] += v
	r.mu.Unlock()
}

// spanID reserves the identifier of a span that will be ended later, so
// that its children can name it as their parent.
func (r *run) spanID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// end closes span id (started at start) now; see spanAt.
func (r *run) end(id, parent int64, op *opRec, layer, name string, start time.Time) float64 {
	return r.spanAt(id, parent, op, layer, name, start, time.Now())
}

// spanAt records span id over [start, end] and adds its duration to the
// op's value under name. The span itself is kept only in a traced run.
func (r *run) spanAt(id, parent int64, op *opRec, layer, name string, start, end time.Time) float64 {
	sec := end.Sub(start).Seconds()
	r.add(op, name, sec)
	if r.cfg.trace {
		var opID int64
		if op != nil {
			opID = op.id
		}
		r.mu.Lock()
		r.spans = append(r.spans, span{id: id, parent: parent, op: opID, layer: layer, name: name,
			start: start.Sub(r.origin), end: end.Sub(r.origin)})
		r.mu.Unlock()
	}
	return sec
}

// setMax keeps the largest v seen for key on the op.
func (r *run) setMax(op *opRec, key string, v float64) {
	r.mu.Lock()
	if old, ok := op.vals[key]; !ok || v > old {
		op.vals[key] = v
	}
	r.mu.Unlock()
}

// modeled records gpusim-simulated phases as back-to-back spans starting
// at start, and adds each to the op's value under its name.
func (r *run) modeled(parent int64, op *opRec, start time.Time, phases []namedValue) {
	at := start.Sub(r.origin)
	for _, ph := range phases {
		r.add(op, ph.name, ph.v)
		if !r.cfg.trace {
			continue
		}
		d := time.Duration(ph.v * float64(time.Second))
		r.mu.Lock()
		r.nextID++
		r.spans = append(r.spans, span{id: r.nextID, parent: parent, op: op.id, layer: "gpusim",
			name: ph.name, start: at, end: at + d, modeled: true})
		r.mu.Unlock()
		at += d
	}
}

type namedValue struct {
	name string
	v    float64
}

// outcome counts one attempted op. err is a program error or a failed
// output check; wrongOutput marks the latter.
func (r *run) outcome(err error, wrongOutput bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempt++
	if err != nil {
		r.failed++
		if wrongOutput {
			r.wrong++
		}
		fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
	}
}

// timeSetup runs one set-up, timing it from a freshly collected heap.
func (r *run) timeSetup(fn func() error) error {
	runtime.GC()
	start := time.Now()
	err := fn()
	r.setup = append(r.setup, time.Since(start).Seconds())
	return err
}

// markHeap records the live heap after set-up and warm-up.
func (r *run) markHeap() {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heap = ms.HeapAlloc
}

// closedLoop runs whole rounds — one op of each class, in order — until the
// measuring window has passed, after warm rounds that no metric reads. A
// forced GC precedes every op, outside its timing.
func (r *run) closedLoop(warm int, classes []string, op func(o *opRec) error) {
	var deadline time.Time
	for round := 0; ; round++ {
		measured := round >= warm
		if round == warm {
			r.markHeap()
			deadline = time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
		}
		if measured && round > warm && !time.Now().Before(deadline) {
			return
		}
		for _, class := range classes {
			o := r.newOp(class, measured)
			runtime.GC()
			err := op(o)
			r.outcome(err, isWrong(err))
		}
	}
}

// classQuantile is Σ over classes of the q-quantile of key over the
// class's measured ops. An op without the key counts as 0.
func (r *run) classQuantile(key string, q float64) float64 {
	byClass := map[string][]float64{}
	for _, o := range r.ops {
		if o.measured {
			byClass[o.class] = append(byClass[o.class], o.vals[key])
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	sum := 0.0
	for _, c := range classes {
		sum += quantile(byClass[c], q)
	}
	return sum
}

func (r *run) classMedian(key string) float64 { return r.classQuantile(key, 0.5) }

// classMean is Σ over classes of the mean of key over the class's measured
// ops. An op without the key counts as 0.
func (r *run) classMean(key string) float64 {
	sum, n := map[string]float64{}, map[string]int{}
	for _, o := range r.ops {
		if o.measured {
			sum[o.class] += o.vals[key]
			n[o.class]++
		}
	}
	classes := make([]string, 0, len(sum))
	for c := range sum {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	total := 0.0
	for _, c := range classes {
		total += sum[c] / float64(n[c])
	}
	return total
}

// spanMedian is Σ over classes of the median duration of the traced spans
// named name that belong to the class's measured ops.
func (r *run) spanMedian(name string) float64 {
	ops := map[int64]*opRec{}
	for _, o := range r.ops {
		if o.measured {
			ops[o.id] = o
		}
	}
	byClass := map[string][]float64{}
	for _, s := range r.spans {
		if o := ops[s.op]; o != nil && s.name == name {
			byClass[o.class] = append(byClass[o.class], (s.end - s.start).Seconds())
		}
	}
	sum := 0.0
	for _, xs := range byClass {
		sum += median(xs)
	}
	return sum
}

// measuredOps counts the measured ops.
func (r *run) measuredOps() int {
	n := 0
	for _, o := range r.ops {
		if o.measured {
			n++
		}
	}
	return n
}

// quantile is the q-quantile of xs with linear interpolation between
// order statistics (q = 0.5 is the usual median). Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// selfTimes adds every traced span's self time — its duration minus the
// part of it that its real (non-modeled) children cover — to the op's
// value under "<layer>.self_s".
func (r *run) selfTimes() {
	children := map[int64][]span{}
	for _, s := range r.spans {
		if !s.modeled && s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	ops := map[int64]*opRec{}
	for _, o := range r.ops {
		ops[o.id] = o
	}
	for _, s := range r.spans {
		if s.modeled || s.op == 0 {
			continue
		}
		self := (s.end - s.start) - covered(s, children[s.id])
		r.add(ops[s.op], s.layer+".self_s", self.Seconds())
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}
