package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"distmsm"
	"distmsm/internal/curve"
)

// msm-g1: closed loop, one caller. Variable-base G1 MSMs on BN254 and
// BLS12-381, each curve served two ways in every round: through
// System.MSMContext on the default concurrent engine over 8 simulated
// A100s, and outsourced through Coordinator.MSM to two provd workers (see
// cluster.go). The bases are fixed per curve; every call gets fresh seeded
// scalars.

// msmCurves are the curves of msm-g1.
var msmCurves = []string{"BN254", "BLS12-381"}

// clusterPoints is the outsourced request size of each curve.
var clusterPoints = map[string]int{"BN254": 2048, "BLS12-381": 1024}

// Set-up repetitions per run; setup_s is their median.
const (
	msmSetups     = 5
	serviceSetups = 3
)

// msmInput is one curve's fixed base vector and its checked chain.
type msmInput struct {
	c   *curve.Curve
	pts []distmsm.PointAffine
	ch  *chain
}

func runMSM(ctx context.Context, r *run) error {
	n, sizes := 1<<16, clusterPoints
	if r.cfg.toy {
		n, sizes = 256, map[string]int{"BN254": 64, "BLS12-381": 32}
	}
	sys, err := distmsm.NewSystem(distmsm.A100, 8)
	if err != nil {
		return err
	}
	// Set-up is the bases of both curves plus the coordinator and its
	// workers up and registered.
	x := &outsourced{cur: &currentOp{}}
	defer func() {
		if x.f != nil {
			x.f.stop()
		}
	}()
	inputs := map[string]*msmInput{}
	var perPoint []float64
	for rep := 0; rep < msmSetups; rep++ {
		if x.f != nil {
			x.f.stop()
			x.f = nil
		}
		inputs = map[string]*msmInput{}
		var sampled float64
		err := r.timeSetup(func() error {
			for i, name := range msmCurves {
				c, err := distmsm.Curve(name)
				if err != nil {
					return err
				}
				t0 := time.Now()
				pts := c.SamplePoints(n, pointSeed(r.cfg.seed, i))
				sampled += r.end(r.spanID(), 0, nil, "curve", "curve.sample_points", t0)
				inputs[name] = &msmInput{c: c, pts: pts}
			}
			var err error
			x.f, err = startFleet(r.cfg.seed, x.dial(r))
			return err
		})
		if err != nil {
			return err
		}
		perPoint = append(perPoint, sampled*1e9/float64(n*len(msmCurves)))
	}
	for _, name := range msmCurves {
		in := inputs[name]
		if in.ch, err = checkChain(in.c, in.pts); err != nil {
			return fmt.Errorf("%s bases: %w", name, err)
		}
	}
	x.prepare(r, inputs, sizes)

	classes := append([]string(nil), msmCurves...)
	for _, name := range msmCurves {
		classes = append(classes, clusterPrefix+name)
	}
	calls := int64(0)
	r.closedLoop(1, classes, func(o *opRec) error {
		calls++
		if name, ok := strings.CutPrefix(o.class, clusterPrefix); ok {
			return x.op(ctx, r, o, name, calls)
		}
		in := inputs[o.class]
		scalars := in.c.SampleScalars(n, scalarSeed(r.cfg.seed, calls))
		m := r.mem()
		id := r.spanID()
		t0 := time.Now()
		res, err := sys.MSMContext(ctx, in.c, in.pts, scalars)
		sec := r.end(id, 0, o, "core", coreMSMKey(o.class), t0)
		r.add(o, "core.msm_alloc_bytes", r.since(o, m))
		if err != nil {
			return err
		}
		r.add(o, "latency_s", sec)
		r.add(o, "service_s", sec)
		r.add(o, "points", float64(n))
		r.recordMSM(id, o, t0, res)
		if !in.ch.matchesXYZZ(in.c, res.Point, in.ch.expected(scalars)) {
			return wrongf("%s MSM of %d points differs from (Σx_i)·P_0 + (Σ i·x_i)·D", o.class, n)
		}
		return nil
	})

	if r.cfg.trace {
		r.layer["curve.sample_points_ns"] = median(perPoint)
		bn, bls := inputs["BN254"], inputs["BLS12-381"]
		r.probeField("field.bn254_mul_ns", "field.bn254_inv_ns", bn.c.Fp, coords(bn.pts))
		r.probeField("field.bls12381_mul_ns", "", bls.c.Fp, coords(bls.pts))
		r.probePACC("curve.bn254_pacc_ns", bn.c, bn.pts)
		r.probePACC("curve.bls12381_pacc_ns", bls.c, bls.pts)
		r.probeScalarMul(bn.c, bn.pts, bn.c.SampleScalars(64, scalarSeed(r.cfg.seed, -1)))
		if err := x.layerValues(r); err != nil {
			return err
		}
	}
	return nil
}

// pointSeed derives the fixed base-vector seed of curve i from the run seed.
func pointSeed(seed int64, i int) uint64 { return uint64(seed)*1000003 + uint64(i) + 1 }

// scalarSeed derives the scalar seed of the k-th call from the run seed.
func scalarSeed(seed, k int64) int64 { return seed*7919 + k }

func coreMSMKey(curveName string) string {
	if curveName == "BN254" {
		return "core.bn254_msm_s"
	}
	return "core.bls12381_msm_s"
}

// memMark is a reading of the process's cumulative heap allocation and GC
// count.
type memMark struct{ alloc, gcs float64 }

// mem reads the counters in a traced run only (ReadMemStats stops the
// world); an untraced run gets zeros.
func (r *run) mem() memMark {
	if !r.cfg.trace {
		return memMark{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{float64(ms.TotalAlloc), float64(ms.NumGC)}
}

// since adds the allocation and GC cycles since m to the op's runtime
// values, and returns the bytes allocated.
func (r *run) since(o *opRec, m memMark) float64 {
	now := r.mem()
	r.add(o, "runtime.alloc_bytes", now.alloc-m.alloc)
	r.add(o, "runtime.gc_cycles", now.gcs-m.gcs)
	return now.alloc - m.alloc
}

// recordMSM keeps an engine MSM's returned statistics and modeled cost on
// the op: host phase times and PACC counts from Result.Stats, gpusim
// phases from Result.Cost (as modeled spans under the MSM's span).
func (r *run) recordMSM(parent int64, o *opRec, start time.Time, res *distmsm.Result) {
	st := res.Stats
	r.add(o, "core.scatter_s", st.Phase.Scatter.Seconds())
	r.add(o, "core.bucket_sum_wall_s", st.Phase.BucketSumWall.Seconds())
	r.add(o, "core.bucket_reduce_s", st.Phase.BucketReduce.Seconds())
	r.add(o, "core.window_reduce_s", st.Phase.WindowReduce.Seconds())
	r.add(o, "core.pacc_ops", float64(st.PACCOps))
	if len(st.PerGPU) > 0 {
		var sum, peak float64
		for _, g := range st.PerGPU {
			v := float64(g.PACCOps)
			sum += v
			peak = max(peak, v)
		}
		if sum > 0 {
			r.setMax(o, "core.gpu_load_imbalance", peak/(sum/float64(len(st.PerGPU))))
		}
	}
	c := res.Cost
	r.modeled(parent, o, start, []namedValue{
		{"gpusim.scatter_s", c.Scatter},
		{"gpusim.bucket_sum_s", c.BucketSum},
		{"gpusim.transfer_s", c.Transfer},
		{"gpusim.bucket_reduce_s", c.BucketReduce},
		{"gpusim.window_reduce_s", c.WindowReduce},
	})
	r.add(o, "gpusim.total_s", c.Total())
}
