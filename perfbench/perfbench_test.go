package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"distmsm"
	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/groth16"
	"distmsm/internal/serial"
	"distmsm/internal/service"
)

// toyRun runs one workload at miniature size through the same code path
// as the benchmark proper.
func toyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	cfg := config{workload: workload, seed: 3, seconds: 0.3, trace: trace, toy: true, traceDir: t.TempDir()}
	res, err := execute(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", workload, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func TestWorkloadsUntraced(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res := toyRun(t, wl.name, false)
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m := res.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("%s = %v %s", d.Name, m.Value, m.Unit)
				}
			}
		})
	}
}

// layersOnPath lists, per workload, layers whose spans its trace must hold.
var layersOnPath = map[string][]string{
	"msm-g1":      {"field", "curve", "core", "gpusim", "cluster", "provd", "outsource"},
	"service-mix": {"field", "curve", "core", "gpusim", "pairing", "ntt", "groth16", "service"},
}

func TestWorkloadsTraced(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := config{workload: wl.name, seed: 3, seconds: 0.3, trace: true, toy: true, traceDir: t.TempDir()}
			res, err := execute(context.Background(), cfg)
			if err != nil || !res.Correct || res.Failed != 0 {
				t.Fatalf("err %v, result %+v", err, res)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			raw, err := os.ReadFile(filepath.Join(cfg.traceDir, wl.name+"-seed3.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &tr); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, e := range tr.TraceEvents {
				seen[e.Cat] = true
			}
			for _, layer := range layersOnPath[wl.name] {
				if !seen[layer] {
					t.Errorf("trace has no %s span", layer)
				}
			}
		})
	}
}

func TestMSMCheckRejectsWrongResult(t *testing.T) {
	for _, name := range msmCurves {
		c, err := curve.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pts := c.SamplePoints(32, 5)
		ch, err := checkChain(c, pts)
		if err != nil {
			t.Fatal(err)
		}
		scalars := c.SampleScalars(len(pts), 6)
		got := c.MSMReference(pts, scalars)
		want := ch.expected(scalars)
		if !ch.matchesXYZZ(c, got, want) {
			t.Fatalf("%s: the check rejects the right result", name)
		}
		aff := c.ToAffine(got)
		if !ch.matchesEncoded(serial.MarshalPoint(c, &aff, false), want) {
			t.Fatalf("%s: the check rejects the right encoded result", name)
		}
		// Off by one base point.
		c.NewAdder().Acc(got, &pts[7])
		if ch.matchesXYZZ(c, got, want) {
			t.Fatalf("%s: the check accepts a result off by one base point", name)
		}
		aff = c.ToAffine(got)
		if ch.matchesEncoded(serial.MarshalPoint(c, &aff, false), want) {
			t.Fatalf("%s: the check accepts an encoded result off by one base point", name)
		}
	}
}

func TestChainCheckRejectsBrokenChain(t *testing.T) {
	c, err := curve.ByName("BN254")
	if err != nil {
		t.Fatal(err)
	}
	pts := c.SamplePoints(16, 5)
	pts[9] = c.SamplePoints(16, 6)[9]
	if _, err := checkChain(c, pts); err == nil {
		t.Fatal("checkChain accepts points that are not one arithmetic chain")
	}
}

func TestProofCheckRejectsWrongPublicInput(t *testing.T) {
	snark, err := distmsm.NewSNARK(nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, w := snark.SyntheticCircuit(13, 1)
	_, wOther := snark.SyntheticCircuit(13, 2)
	pk, vk, err := snark.SetupContext(context.Background(), cs, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	proof, err := snark.ProveContext(context.Background(), cs, pk, w, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := snark.Verify(vk, proof, w[1:1+cs.NPublic]); err != nil || !ok {
		t.Fatalf("proof does not verify: %v", err)
	}
	if got, want := proofPoints(cs), float64(len(pk.A)+len(pk.B1)+len(pk.K)+len(pk.Z)+len(pk.B2)); got != want {
		t.Fatalf("proofPoints = %v, the proving key's MSMs hold %v points", got, want)
	}
	if ok, _ := snark.Verify(vk, proof, wOther[1:1+cs.NPublic]); ok {
		t.Fatal("proof verifies against another seed's public input")
	}
}

func TestServiceCheckRejectsWrongPublicInput(t *testing.T) {
	cl, err := gpusim.NewCluster(gpusim.A100(), 8)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	if err := svc.RegisterSynthetic(context.Background(), "c16", 13); err != nil {
		t.Fatal(err)
	}
	proof, err := proveOnce(svc, "c16", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServiceProof(svc, "c16", 4, proof, true); err != nil {
		t.Fatal(err)
	}
	if err := checkServiceProof(svc, "c16", 5, proof, false); !isWrong(err) {
		t.Fatalf("proof of seed 4 passes as seed 5 (err %v)", err)
	}
}

func TestTracedProveMatchesSNARK(t *testing.T) {
	sys, err := distmsm.NewSystem(distmsm.A100, 8)
	if err != nil {
		t.Fatal(err)
	}
	snark, err := distmsm.NewSNARK(sys)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := groth16.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cs, w := snark.SyntheticCircuit(29, 1)
	pk, _, err := snark.SetupContext(ctx, cs, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := snark.ProveContext(ctx, cs, pk, w, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(config{trace: true})
	o := r.newOp("proof", true)
	got, err := r.tracedProve(ctx, eng, sys, o, r.spanID(), time.Now(), cs, pk, w, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(eng.MarshalProof(got), eng.MarshalProof(want)) {
		t.Fatal("the traced prover's proof differs from SNARK.ProveContext's")
	}
}

func TestWrongOutputFailsTheRun(t *testing.T) {
	r := newRun(config{seconds: 0.01})
	r.closedLoop(0, []string{"a"}, func(o *opRec) error {
		if o.id == 1 {
			return wrongf("deliberately wrong")
		}
		return nil
	})
	if r.failed != 1 || r.wrong != 1 || r.attempt < 2 {
		t.Fatalf("failed %d wrong %d attempted %d", r.failed, r.wrong, r.attempt)
	}
	if err := errors.New("program error"); isWrong(err) {
		t.Fatal("a program error counts as a wrong output")
	}
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := schedule(7, mixRate, 15, 2), schedule(7, mixRate, 15, 2)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules of one seed differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
	// Another seed proves other statements under the same load.
	c := schedule(8, mixRate, 15, 2)
	if len(c) != len(a) || c[0].due != a[0].due || c[0].circuit != a[0].circuit || c[0].seed == a[0].seed {
		t.Fatal("another seed changed the load or kept the witnesses")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
}
