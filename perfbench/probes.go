package main

import (
	"context"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/ntt"
	"distmsm/internal/pairing"
)

// Layer probes of a traced run: timed loops of one layer's public
// operations on the workload's own inputs, each recorded as one span of
// that layer. They run after the measured window, so they never disturb
// it.

// probe times fn(iters) as one span and stores the per-iteration time,
// scaled by unit (1e9 for ns, 1e6 for µs, 1 for s), under key.
func (r *run) probe(layer, key string, iters int, unit float64, fn func(iters int)) {
	t0 := time.Now()
	fn(iters)
	sec := r.end(r.spanID(), 0, nil, layer, key, t0)
	r.layer[key] = sec * unit / float64(iters)
}

// coords returns the coordinates of up to 2048 points.
func coords(pts []curve.PointAffine) []field.Element {
	pts = pts[:min(len(pts), 2048)]
	out := make([]field.Element, 0, 2*len(pts))
	for _, p := range pts {
		if !p.Inf {
			out = append(out, p.X, p.Y)
		}
	}
	return out
}

// probeField times Field.Mul and (when invKey is set) Field.Inv over xs.
func (r *run) probeField(mulKey, invKey string, f *field.Field, xs []field.Element) {
	if len(xs) < 2 {
		return
	}
	z := f.NewElement()
	r.probe("field", mulKey, 1<<20, 1e9, func(iters int) {
		for i := 0; i < iters; i++ {
			f.Mul(z, xs[i%len(xs)], xs[(i+1)%len(xs)])
		}
	})
	if invKey == "" {
		return
	}
	r.probe("field", invKey, 1<<10, 1e9, func(iters int) {
		for i := 0; i < iters; i++ {
			f.Inv(z, xs[i%len(xs)])
		}
	})
}

// probePACC times Adder.Acc, accumulating the points into one XYZZ sum.
func (r *run) probePACC(key string, c *curve.Curve, pts []curve.PointAffine) {
	if len(pts) == 0 {
		return
	}
	a := c.NewAdder()
	acc := c.NewXYZZ()
	r.probe("curve", key, 1<<16, 1e9, func(iters int) {
		for i := 0; i < iters; i++ {
			a.Acc(acc, &pts[i%len(pts)])
		}
	})
}

// probeScalarMul times Adder.ScalarMul of the points by the scalars.
func (r *run) probeScalarMul(c *curve.Curve, pts []curve.PointAffine, scalars []bigint.Nat) {
	if len(pts) == 0 || len(scalars) == 0 {
		return
	}
	a := c.NewAdder()
	r.probe("curve", "curve.bn254_scalar_mul_us", len(scalars), 1e6, func(iters int) {
		for i := 0; i < iters; i++ {
			a.ScalarMul(&pts[i%len(pts)], scalars[i])
		}
	})
}

// probeFp2 times the Fp2 multiplication of the pairing tower over the
// coordinates of G2 points.
func (r *run) probeFp2(t *pairing.Tower, pts []pairing.G2Affine) {
	var xs []pairing.E2
	for _, p := range pts[:min(len(pts), 2048)] {
		if !p.Inf {
			xs = append(xs, p.X, p.Y)
		}
	}
	if len(xs) < 2 {
		return
	}
	z := t.E2Zero()
	r.probe("pairing", "pairing.fp2_mul_ns", 1<<18, 1e9, func(iters int) {
		for i := 0; i < iters; i++ {
			t.E2Mul(&z, &xs[i%len(xs)], &xs[(i+1)%len(xs)])
		}
	})
}

// probeCosetNTT times a forward coset NTT over a domain of size d, on the
// values vals (zero-padded or cut to d).
func (r *run) probeCosetNTT(ctx context.Context, f *field.Field, d int, vals []field.Element) error {
	dom, err := ntt.NewDomain(f, d)
	if err != nil {
		return err
	}
	a := make([]field.Element, d)
	for i := range a {
		a[i] = f.NewElement()
		if i < len(vals) {
			a[i].Set(vals[i])
		}
	}
	var samples []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		if err := dom.CosetForwardContext(ctx, a); err != nil {
			return err
		}
		samples = append(samples, r.end(r.spanID(), 0, nil, "ntt", "ntt.coset_forward_s", t0))
	}
	r.layer["ntt.coset_forward_s"] = median(samples)
	return nil
}
