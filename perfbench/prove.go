package main

import (
	"context"
	"math/big"
	"math/rand"
	"time"

	"distmsm"
	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/groth16"
	"distmsm/internal/pairing"
)

// The single-proof path: one synthetic BN254 circuit goes through
// SNARK.SetupContext, then through SNARK.ProveContext proofs with fresh
// per-proof randomness: G1 MSMs on the engine (8 simulated A100s), the G2
// MSM on the host windowed path, sequential schedule. It is no workload of
// its own: on the development host its wall time moved between two levels
// about 1.3× apart for minutes at a time (mean proofs of 0.86 and 1.31 s
// for the same seed a minute apart, while its set-up held within ±8%), so
// no window within the benchmark's time budget could steady it. Traced
// service-mix runs measure it as a probe after their window, for the
// groth16 and windowed-G2 per-layer metrics.

// proveConstraints is the circuit size: 2045 chain constraints plus the
// output constraint make 2046, so the QAP domain is 2^11.
const proveConstraints = 2045

// proveProbeProofs is how many proofs the probe makes; its metrics are
// their medians.
const proveProbeProofs = 3

var phaseKey = map[groth16.MSMPhase]string{
	groth16.PhaseA:  "groth16.msm_a_s",
	groth16.PhaseB1: "groth16.msm_b1_s",
	groth16.PhaseK:  "groth16.msm_k_s",
	groth16.PhaseZ:  "groth16.msm_z_s",
}

// probeProve sets the single-proof path's circuit up once and makes
// proveProbeProofs traced proofs, each checked with SNARK.Verify; the
// first is also checked against another seed's public input, which must
// fail. The proofs are ops of their own "probe" class, which records no
// latency, service time or points, so the end-to-end values are unchanged.
func (r *run) probeProve(ctx context.Context) error {
	n := proveConstraints
	if r.cfg.toy {
		n = 29
	}
	sys, err := distmsm.NewSystem(distmsm.A100, 8)
	if err != nil {
		return err
	}
	snark, err := distmsm.NewSNARK(sys)
	if err != nil {
		return err
	}
	eng, err := groth16.NewEngine()
	if err != nil {
		return err
	}
	cs, w := snark.SyntheticCircuit(n, r.cfg.seed)
	public := w[1 : 1+cs.NPublic]
	_, wOther := snark.SyntheticCircuit(n, r.cfg.seed+1)

	t0 := time.Now()
	pk, vk, err := snark.SetupContext(ctx, cs, rand.New(rand.NewSource(r.cfg.seed)))
	r.layer["groth16.setup_s"] = r.end(r.spanID(), 0, nil, "groth16", "groth16.setup_s", t0)
	if err != nil {
		return err
	}
	for k := int64(1); k <= proveProbeProofs; k++ {
		o := r.newOp("probe", true)
		rnd := rand.New(rand.NewSource(scalarSeed(r.cfg.seed, k)))
		id := r.spanID()
		t0 := time.Now()
		proof, err := r.tracedProve(ctx, eng, sys, o, id, t0, cs, pk, w, rnd)
		r.end(id, 0, o, "groth16", "groth16.prove", t0)
		if err != nil {
			return err
		}
		if ok, err := snark.Verify(vk, proof, public); err != nil || !ok {
			return wrongf("probe proof %d does not verify (err %v)", k, err)
		}
		if k == 1 {
			if ok, _ := snark.Verify(vk, proof, wOther[1:1+cs.NPublic]); ok {
				return wrongf("probe proof verifies against another seed's public input")
			}
		}
	}
	return r.probeCosetNTT(ctx, snark.ScalarField(), pk.Domain, w)
}

// tracedProve is the traced form of SNARK.ProveContext: the same
// sequential prover with the same MSM backends — G1 through
// System.MSMContext with 8-bit windows on the concurrent engine, G2 on the
// windowed host MSM — reached through the groth16.Provers hooks so that
// each phase gets its span. Proofs are byte-identical to the untraced
// path (pinned by TestTracedProveMatchesSNARK).
func (r *run) tracedProve(ctx context.Context, eng *groth16.Engine, sys *distmsm.System, o *opRec, parent int64, t0 time.Time,
	cs *distmsm.ConstraintSystem, pk *distmsm.ProvingKey, w distmsm.Witness, rnd *rand.Rand) (*distmsm.Proof, error) {
	first := true
	pr := groth16.Provers{
		G1Ctx: func(ctx context.Context, phase groth16.MSMPhase, points []curve.PointAffine, scalars []bigint.Nat) (*curve.PointXYZZ, error) {
			if first {
				r.end(r.spanID(), parent, o, "groth16", "groth16.pre_msm_s", t0)
				first = false
			}
			hook := r.spanID()
			ts := time.Now()
			msm := r.spanID()
			m := r.mem()
			res, err := sys.MSMContext(ctx, eng.P.Curve, points, scalars,
				distmsm.WithWindowBits(8), distmsm.WithEngine(distmsm.EngineConcurrent))
			r.end(msm, hook, o, "core", "core.bn254_msm_s", ts)
			if err != nil {
				return nil, err
			}
			r.add(o, "core.msm_alloc_bytes", r.mem().alloc-m.alloc)
			r.recordMSM(msm, o, ts, res)
			r.end(hook, parent, o, "groth16", phaseKey[phase], ts)
			return res.Point, nil
		},
		G2Ctx: func(ctx context.Context, points []pairing.G2Affine, scalars []*big.Int) (pairing.G2Affine, error) {
			hook := r.spanID()
			ts := time.Now()
			m := r.mem()
			out, err := eng.P.G2.MSMContext(ctx, points, scalars)
			r.end(r.spanID(), hook, o, "pairing", "pairing.g2_msm_s", ts)
			r.add(o, "pairing.g2_msm_alloc_bytes", r.mem().alloc-m.alloc)
			r.end(hook, parent, o, "groth16", "groth16.msm_b2_s", ts)
			return out, err
		},
	}
	return eng.ProveContextWith(ctx, cs, pk, w, rnd, pr)
}
