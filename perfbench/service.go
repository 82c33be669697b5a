package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"distmsm"
	"distmsm/internal/gpusim"
	"distmsm/internal/groth16"
	"distmsm/internal/pairing"
	"distmsm/internal/service"
)

// service-mix: open loop. An in-process service.Service with its
// per-circuit base caches serves two synthetic circuits of different
// sizes. Arrivals are Poisson at one fixed absolute rate, never scaled to
// the measured speed. The arrival times and the circuit of each arrival
// are part of the workload's definition, drawn from the fixed
// mixScheduleSeed; --seed picks each job's witness seed, so every run
// proves different statements under the same load. The queue depth and
// deadlines are set so that no job is refused or shed. Job latency runs
// from the arrival's due time to the finished proof (the OnJobDone hook).

// mixCircuit is one registered circuit of the mix: n chain constraints
// plus the output constraint, so n = 2^k − 3 gives a QAP domain of 2^k.
type mixCircuit struct {
	name string
	n    int
}

var (
	mixCircuits = []mixCircuit{{"c256", 253}, {"c1024", 1021}}
	toyCircuits = []mixCircuit{{"c16", 13}, {"c32", 29}}
)

// mixRate is the offered load in jobs per second. With jobs of about
// 0.25 s (c256) and 0.42 s (c1024) on one P the prover is busy a fifth of
// the time: a light load, so that a job's latency stays close to its
// served proof while queueing shows in the tail. Queueing grows faster
// than the service time when the host slows, so a heavier load spreads
// more: at 0.8 jobs/s ten runs' mean latency spread 21% (IQR ÷ median)
// against 14% for the served prover's own speed.
const mixRate = 0.6

// jobTimes are the hook timestamps of one job.
type jobTimes struct{ start, done time.Time }

// hookLog collects OnJobStart/OnJobDone timestamps by job ID.
type hookLog struct {
	mu    sync.Mutex
	times map[uint64]*jobTimes
}

func (h *hookLog) mark(j *service.Job, done bool) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.times[j.ID]
	if t == nil {
		t = &jobTimes{}
		h.times[j.ID] = t
	}
	if done {
		t.done = now
	} else {
		t.start = now
	}
}

func (h *hookLog) get(id uint64) jobTimes {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t := h.times[id]; t != nil {
		return *t
	}
	return jobTimes{}
}

// mixScheduleSeed seeds the arrival times and circuit sequence. A window
// holds only about ten jobs of each circuit, so with a schedule drawn per
// run the per-circuit median swung between one and two service times,
// depending on whether a burst happened to delay most of a circuit's jobs.
const mixScheduleSeed = 1

// arrival is one scheduled job of the open loop.
type arrival struct {
	due     time.Duration // offset from the start of the window
	circuit int
	seed    int64
}

// schedule draws the Poisson arrivals of a window of the given length:
// times and circuits from mixScheduleSeed, witness seeds from seed.
func schedule(seed int64, rate, seconds float64, circuits int) []arrival {
	load := rand.New(rand.NewSource(mixScheduleSeed))
	witness := rand.New(rand.NewSource(seed))
	var out []arrival
	for t := load.ExpFloat64() / rate; t < seconds; t += load.ExpFloat64() / rate {
		out = append(out, arrival{
			due:     time.Duration(t * float64(time.Second)),
			circuit: load.Intn(circuits),
			seed:    witness.Int63(),
		})
	}
	return out
}

func runServiceMix(ctx context.Context, r *run) error {
	circuits, rate := mixCircuits, mixRate
	if r.cfg.toy {
		circuits, rate = toyCircuits, 20
	}
	cl, err := gpusim.NewCluster(gpusim.A100(), 8)
	if err != nil {
		return err
	}
	hooks := &hookLog{times: map[uint64]*jobTimes{}}
	newService := func() (*service.Service, error) {
		return service.New(service.Config{
			Cluster:        cl,
			QueueDepth:     1 << 12,
			DefaultTimeout: 10 * time.Minute,
			OnJobStart:     func(j *service.Job) { hooks.mark(j, false) },
			OnJobDone:      func(j *service.Job) { hooks.mark(j, true) },
		})
	}

	var svc *service.Service
	var registers []float64
	for rep := 0; rep < serviceSetups; rep++ {
		if svc != nil {
			if err := svc.Shutdown(ctx); err != nil {
				return err
			}
		}
		var reg float64
		err := r.timeSetup(func() error {
			var err error
			if svc, err = newService(); err != nil {
				return err
			}
			for _, c := range circuits {
				t0 := time.Now()
				err := svc.RegisterSynthetic(ctx, c.name, c.n)
				reg += r.end(r.spanID(), 0, nil, "service", "service.register", t0)
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		registers = append(registers, reg)
	}
	defer svc.Shutdown(context.Background())

	snark, err := distmsm.NewSNARK(nil)
	if err != nil {
		return err
	}
	points := map[string]float64{}
	for _, c := range circuits {
		cs, _ := snark.SyntheticCircuit(c.n, 1)
		points[c.name] = proofPoints(cs)
	}

	// Warm-up: one job per circuit, closed loop. Each proof is also checked
	// against another seed's public input, which must fail.
	var sample *distmsm.Proof
	for i, c := range circuits {
		proof, err := proveOnce(svc, c.name, r.cfg.seed+int64(i))
		if err == nil {
			err = checkServiceProof(svc, c.name, r.cfg.seed+int64(i), proof, true)
		}
		r.outcome(err, isWrong(err))
		if err == nil {
			sample = proof
		}
	}
	r.markHeap()
	statsBefore := svc.Stats()

	arrivals := schedule(r.cfg.seed, rate, r.cfg.seconds, len(circuits))
	type submitted struct {
		a      arrival
		job    *service.Job
		submit time.Time
		err    error
	}
	subs := make(chan submitted, len(arrivals))
	origin := time.Now()
	var lateMax time.Duration
	memBefore := r.mem()
	go func() {
		defer close(subs)
		for _, a := range arrivals {
			due := origin.Add(a.due)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			now := time.Now()
			lateMax = max(lateMax, now.Sub(due))
			job, err := svc.Submit(service.Request{Circuit: circuits[a.circuit].name, Seed: a.seed})
			subs <- submitted{a: a, job: job, submit: now, err: err}
		}
	}()
	// Proofs are checked after the window has drained, so that checking
	// never competes with the service for the CPU.
	type finished struct {
		circuit string
		seed    int64
		proof   *groth16.Proof
		err     error
	}
	var done []finished
	for s := range subs {
		c := circuits[s.a.circuit]
		if s.err != nil {
			done = append(done, finished{err: fmt.Errorf("submit %s: %w", c.name, s.err)})
			continue
		}
		<-s.job.Done()
		proof, err := s.job.Result()
		done = append(done, finished{circuit: c.name, seed: s.a.seed, proof: proof, err: err})
		if err != nil {
			continue
		}
		o := r.newOp(c.name, true)
		ht := hooks.get(s.job.ID)
		root := r.spanID()
		r.spanAt(r.spanID(), root, o, "service", "service.queue_wait_s", s.submit, ht.start)
		prove := r.spanAt(r.spanID(), root, o, "service", "service.prove_s", ht.start, ht.done)
		lat := r.spanAt(root, 0, o, "service", "service.job", origin.Add(s.a.due), ht.done)
		r.add(o, "latency_s", lat)
		r.add(o, "service_s", prove)
		r.add(o, "points", points[c.name])
	}
	memAfter := r.mem()
	for _, f := range done {
		err := f.err
		if err == nil {
			err = checkServiceProof(svc, f.circuit, f.seed, f.proof, false)
		}
		r.outcome(err, isWrong(err))
	}

	if r.cfg.trace {
		st := svc.Stats()
		jobs := float64(r.measuredOps())
		r.layer["runtime.alloc_bytes_per_op"] = (memAfter.alloc - memBefore.alloc) / jobs
		r.layer["runtime.gc_cycles_per_op"] = (memAfter.gcs - memBefore.gcs) / jobs
		r.layer["service.register_s"] = median(registers)
		r.layer["service.queue_wait_p50_s"] = r.classMedian("service.queue_wait_s")
		r.layer["service.prove_p50_s"] = r.classMedian("service.prove_s")
		r.layer["service.prove_p90_s"] = r.classQuantile("service.prove_s", 0.9)
		r.layer["service.job_p90_s"] = r.classQuantile("latency_s", 0.9)
		r.layer["service.base_cache_bytes"] = float64(st.BaseCacheBytes)
		r.layer["service.coalesced"] = float64(st.BatchesCoalesced - statsBefore.BatchesCoalesced)
		r.layer["service.arrival_late_max_s"] = lateMax.Seconds()
		if sample != nil {
			if err := r.serviceProbes(ctx, svc, circuits[len(circuits)-1], sample); err != nil {
				return err
			}
		}
		if err := r.probeProve(ctx); err != nil {
			return err
		}
	}
	return nil
}

// proofPoints is the MSM input points of one proof of cs: the G1 columns
// A, B1 and K and the G2 column B2 hold one point per variable, and the
// quotient column Z one per domain point but the last.
func proofPoints(cs *distmsm.ConstraintSystem) float64 {
	d := 1
	for d < len(cs.Constraints)+1 {
		d <<= 1
	}
	return float64(4*cs.NVars + d - 1)
}

// proveOnce submits one job and waits for its proof.
func proveOnce(svc *service.Service, circuit string, seed int64) (*groth16.Proof, error) {
	job, err := svc.Submit(service.Request{Circuit: circuit, Seed: seed})
	if err != nil {
		return nil, err
	}
	<-job.Done()
	return job.Result()
}

// checkServiceProof verifies a proof of (circuit, seed) with
// Service.VerifyProof; with wrongInput it also checks that the proof does
// not verify against another seed's public input.
func checkServiceProof(svc *service.Service, circuit string, seed int64, proof *groth16.Proof, wrongInput bool) error {
	raw := svc.Engine().MarshalProof(proof)
	ok, err := svc.VerifyProof(circuit, seed, raw)
	if err != nil || !ok {
		return wrongf("%s proof of seed %d does not verify (err %v)", circuit, seed, err)
	}
	if wrongInput {
		if ok, _ := svc.VerifyProof(circuit, seed+1, raw); ok {
			return wrongf("%s proof verifies against another seed's public input", circuit)
		}
	}
	return nil
}

// serviceProbes runs the traced layer probes of service-mix on its own
// outputs and sizes: field, curve and Fp2 arithmetic over a proof's
// points, and the precomputed G2 MSM the base cache uses, at the larger
// circuit's size.
func (r *run) serviceProbes(ctx context.Context, svc *service.Service, largest mixCircuit, proof *groth16.Proof) error {
	eng := svc.Engine()
	c := eng.P.Curve
	pts := []distmsm.PointAffine{proof.A, proof.C}
	r.probeField("field.bn254_mul_ns", "field.bn254_inv_ns", c.Fp, coords(pts))
	r.probePACC("curve.bn254_pacc_ns", c, pts)
	rnd := rand.New(rand.NewSource(r.cfg.seed))
	scalars := make([]distmsm.Scalar, 64)
	g2Scalars := make([]*big.Int, largest.n+3)
	for i := range scalars {
		scalars[i] = distmsm.Scalar(eng.Fr.Rand(rnd))
	}
	r.probeScalarMul(c, pts, scalars)
	r.probeFp2(eng.P.T, []pairing.G2Affine{proof.B})

	g2 := eng.P.G2
	bases := make([]pairing.G2Affine, len(g2Scalars))
	for i := range bases {
		bases[i] = g2.ScalarMul(&g2.Gen, big.NewInt(int64(i)+2))
		g2Scalars[i] = eng.Fr.ToBig(eng.Fr.Rand(rnd))
	}
	pre := g2.Precompute(bases, 0, eng.Fr.Modulus.BitLen())
	var samples []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		if _, err := pre.MSMContext(ctx, g2Scalars); err != nil {
			return err
		}
		samples = append(samples, r.end(r.spanID(), 0, nil, "pairing", "pairing.g2_precomputed_msm_s", t0))
	}
	r.layer["pairing.g2_precomputed_msm_s"] = median(samples)
	return nil
}
