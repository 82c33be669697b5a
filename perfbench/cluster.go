package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"distmsm/internal/cluster"
	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/outsource"
	"distmsm/internal/service"
)

// msm-g1's outsourced classes: a coordinator with two in-process provd
// workers (service.Service handlers) over loopback HTTP serves verifiable
// outsourced MSMs through Coordinator.MSM, on BN254 and BLS12-381. Every
// request names msm-g1's bases by seed (its first n points) and fresh
// seeded scalars; the result is checked against the arithmetic-chain
// identity of check.go.

// clusterWorkers is the number of provd workers.
const clusterWorkers = 2

// fleet is one coordinator with its workers, all on loopback listeners.
type fleet struct {
	coord   *cluster.Coordinator
	servers []*http.Server
	agents  []*cluster.Agent
	svcs    []*service.Service
}

// serve starts an HTTP server for h on a loopback port.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// startFleet brings up the coordinator and the workers. Each worker's
// agent registers synchronously in StartAgent; no step waits on a timer.
func startFleet(seed int64, dial func(addr string) cluster.WorkerClient) (*fleet, error) {
	f := &fleet{}
	f.coord = cluster.NewCoordinator(cluster.Config{
		DialWorker: dial,
		MSMRandom:  outsource.NewSeededReader(uint64(seed)),
	})
	coordURL, err := f.serve(f.coord.Handler())
	if err != nil {
		return f, err
	}
	cl, err := gpusim.NewCluster(gpusim.A100(), 8)
	if err != nil {
		return f, err
	}
	for i := 0; i < clusterWorkers; i++ {
		svc, err := service.New(service.Config{Cluster: cl})
		if err != nil {
			return f, err
		}
		f.svcs = append(f.svcs, svc)
		addr, err := f.serve(svc.Handler())
		if err != nil {
			return f, err
		}
		ag, err := cluster.StartAgent(cluster.AgentConfig{Coordinator: coordURL, NodeID: fmt.Sprintf("worker-%d", i), Addr: addr})
		if err != nil {
			return f, err
		}
		f.agents = append(f.agents, ag)
	}
	if alive := f.coord.AliveNodes(); alive != clusterWorkers {
		return f, fmt.Errorf("%d of %d workers registered", alive, clusterWorkers)
	}
	return f, nil
}

// stop shuts everything down and waits for it.
func (f *fleet) stop() {
	for _, ag := range f.agents {
		ag.Stop()
	}
	for _, srv := range f.servers {
		_ = srv.Close()
	}
	for _, svc := range f.svcs {
		_ = svc.Shutdown(context.Background())
	}
	if f.coord != nil {
		f.coord.Close()
	}
}

// timedWorker is the DialWorker wrapper: it times every MSM dispatch as a
// span under the current request's span and counts the request bytes (the
// same JSON the HTTP client sends).
type timedWorker struct {
	*cluster.HTTPWorkerClient
	r   *run
	cur *currentOp
}

// currentOp is the op the single caller has in flight.
type currentOp struct {
	mu     sync.Mutex
	op     *opRec
	parent int64
}

func (c *currentOp) set(op *opRec, parent int64) {
	c.mu.Lock()
	c.op, c.parent = op, parent
	c.mu.Unlock()
}

func (c *currentOp) get() (*opRec, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.op, c.parent
}

func (w *timedWorker) DispatchMSM(ctx context.Context, req cluster.MSMDispatchRequest) ([]byte, error) {
	op, parent := w.cur.get()
	if w.r.cfg.trace {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		w.r.add(op, "cluster.request_bytes", float64(len(body)))
	}
	w.r.add(op, "cluster.dispatches", 1)
	t0 := time.Now()
	out, err := w.HTTPWorkerClient.DispatchMSM(ctx, req)
	// The span is the cluster → worker boundary; what it covers runs on
	// the provd worker, so it sits on its own track and adds nothing to
	// cluster.self_s.
	w.r.end(w.r.spanID(), parent, op, "provd", "cluster.dispatch_msm", t0)
	return out, err
}

// clusterInput is one curve's request template and checked base chain.
type clusterInput struct {
	c         *curve.Curve
	n         int
	pointSeed uint64
	ch        *chain
	pts       []curve.PointAffine
}

// clusterPrefix names the outsourced size class of a curve.
const clusterPrefix = "cluster-"

// outsourced is msm-g1's cluster path: the fleet, the op the DialWorker
// wrapper charges, and the per-curve request templates.
type outsourced struct {
	f                *fleet
	cur              *currentOp
	inputs           map[string]*clusterInput
	redispatchBefore uint64
}

// dial is the coordinator's DialWorker: an HTTP client wrapped in
// timedWorker.
func (x *outsourced) dial(r *run) func(addr string) cluster.WorkerClient {
	return func(addr string) cluster.WorkerClient {
		return &timedWorker{HTTPWorkerClient: cluster.NewHTTPWorkerClient(addr), r: r, cur: x.cur}
	}
}

// prepare takes each curve's request bases as the first sizes[curve]
// points of the engine's checked base vector, which is how the workers
// derive them from the seed.
func (x *outsourced) prepare(r *run, engine map[string]*msmInput, sizes map[string]int) {
	x.inputs = map[string]*clusterInput{}
	for i, name := range msmCurves {
		in := engine[name]
		n := sizes[name]
		x.inputs[name] = &clusterInput{c: in.c, n: n, pointSeed: pointSeed(r.cfg.seed, i), ch: in.ch, pts: in.pts[:n]}
	}
	x.redispatchBefore = x.f.coord.Stats().Redispatches
}

// op runs one outsourced MSM of curve name and checks its result.
func (x *outsourced) op(ctx context.Context, r *run, o *opRec, name string, call int64) error {
	in := x.inputs[name]
	req := cluster.MSMRequest{Curve: name, PointSeed: in.pointSeed, ScalarSeed: scalarSeed(r.cfg.seed, call), N: in.n}
	m := r.mem()
	id := r.spanID()
	x.cur.set(o, id)
	t0 := time.Now()
	out, err := x.f.coord.MSM(ctx, req)
	sec := r.end(id, 0, o, "cluster", "cluster.msm", t0)
	r.since(o, m)
	x.cur.set(nil, 0)
	if err != nil {
		return err
	}
	r.add(o, "latency_s", sec)
	r.add(o, "service_s", sec)
	r.add(o, "points", float64(in.n))
	scalars := in.c.SampleScalars(in.n, req.ScalarSeed)
	if !in.ch.matchesEncoded(out, in.ch.expected(scalars)) {
		return wrongf("%s outsourced MSM of %d points differs from (Σx_i)·P_0 + (Σ i·x_i)·D", name, in.n)
	}
	return nil
}

// layerValues stores the cluster and outsource per-layer metrics of a
// traced run; per-MSM counts are over the outsourced ops only.
func (x *outsourced) layerValues(r *run) error {
	var ops, dispatches, bytes float64
	for _, o := range r.ops {
		if o.measured && strings.HasPrefix(o.class, clusterPrefix) {
			ops++
			dispatches += o.vals["cluster.dispatches"]
			bytes += o.vals["cluster.request_bytes"]
		}
	}
	if ops == 0 {
		return errors.New("no outsourced MSM was measured")
	}
	r.layer["cluster.dispatch_msm_p50_s"] = r.spanMedian("cluster.dispatch_msm")
	r.layer["cluster.dispatches_per_msm"] = dispatches / ops
	r.layer["cluster.request_bytes_per_msm"] = bytes / ops
	r.layer["cluster.redispatches"] = float64(x.f.coord.Stats().Redispatches - x.redispatchBefore)
	return r.probeOutsource(x.inputs["BN254"])
}

// probeOutsource times outsource.NewCheck and Check.Verify at the shard
// size of a BN254 request (its first shard), with honest claims computed
// from the chain identity.
func (r *run) probeOutsource(in *clusterInput) error {
	shard := in.n / clusterWorkers
	pts := in.pts[:shard]
	scalars := in.c.SampleScalars(shard, scalarSeed(r.cfg.seed, -2))
	rnd := outsource.NewSeededReader(uint64(r.cfg.seed))
	var ck *outsource.Check
	var samples []float64
	for rep := 0; rep < 9; rep++ {
		t0 := time.Now()
		var err error
		if ck, err = outsource.NewCheck(in.c, pts, scalars, outsource.Params{}, rnd); err != nil {
			return err
		}
		samples = append(samples, r.end(r.spanID(), 0, nil, "outsource", "outsource.new_check_s", t0))
	}
	r.layer["outsource.new_check_s"] = median(samples)
	claim := in.ch.toXYZZ(in.c, in.ch.expected(scalars))
	chal := in.ch.toXYZZ(in.c, in.ch.expected(ck.Challenge()))
	if !ck.Verify(claim, chal) {
		return errors.New("outsource probe: the check rejects an honest claim")
	}
	r.probe("outsource", "outsource.verify_us", 256, 1e6, func(iters int) {
		for i := 0; i < iters; i++ {
			ck.Verify(claim, chal)
		}
	})
	return nil
}

// toXYZZ converts a checked affine point to the program's XYZZ form.
func (ch *chain) toXYZZ(c *curve.Curve, p ecPoint) *curve.PointXYZZ {
	out := c.NewXYZZ()
	if !p.inf {
		c.SetAffine(out, &curve.PointAffine{X: c.Fp.FromBig(p.x), Y: c.Fp.FromBig(p.y)})
	}
	return out
}
