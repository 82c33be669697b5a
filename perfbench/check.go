package main

import (
	"errors"
	"fmt"
	"math/big"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
)

// This file checks MSM outputs against a computation made apart from the
// program: plain math/big affine arithmetic on y² = x³ + ax + b.
//
// The benchmark's bases form an arithmetic chain P_i = P_0 + i·D (that is
// how curve.SamplePoints builds them, and checkChain confirms it on the
// points actually used). Hence Σ x_i·P_i = (Σ x_i)·P_0 + (Σ i·x_i)·D. The
// two integer sums are left unreduced, so the identity holds whatever the
// group order — BLS12-381 sample points are not cofactor-cleared.

// wrongOutputError marks an op whose output failed its check.
type wrongOutputError struct{ msg string }

func (e *wrongOutputError) Error() string { return "wrong output: " + e.msg }

func wrongf(format string, args ...any) error {
	return &wrongOutputError{msg: fmt.Sprintf(format, args...)}
}

func isWrong(err error) bool {
	var w *wrongOutputError
	return errors.As(err, &w)
}

// ecPoint is an affine point in canonical integers; inf marks infinity.
type ecPoint struct {
	x, y *big.Int
	inf  bool
}

// ecCurve is y² = x³ + ax + b over F_p.
type ecCurve struct {
	p, a, b *big.Int
}

func newECCurve(c *curve.Curve) ecCurve {
	return ecCurve{p: c.Fp.Modulus, a: c.Fp.ToBig(c.A), b: c.Fp.ToBig(c.B)}
}

func (e ecCurve) mod(x *big.Int) *big.Int { return x.Mod(x, e.p) }

func (e ecCurve) fromAffine(c *curve.Curve, p *curve.PointAffine) ecPoint {
	if p.Inf {
		return ecPoint{inf: true}
	}
	return ecPoint{x: c.Fp.ToBig(p.X), y: c.Fp.ToBig(p.Y)}
}

func (e ecCurve) onCurve(p ecPoint) bool {
	if p.inf {
		return true
	}
	lhs := e.mod(new(big.Int).Mul(p.y, p.y))
	rhs := new(big.Int).Mul(p.x, p.x)
	rhs.Mul(rhs, p.x)
	rhs.Add(rhs, new(big.Int).Mul(e.a, p.x))
	rhs.Add(rhs, e.b)
	return lhs.Cmp(e.mod(rhs)) == 0
}

func (e ecCurve) equal(p, q ecPoint) bool {
	if p.inf || q.inf {
		return p.inf == q.inf
	}
	return p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0
}

func (e ecCurve) neg(p ecPoint) ecPoint {
	if p.inf {
		return p
	}
	return ecPoint{x: p.x, y: e.mod(new(big.Int).Neg(p.y))}
}

// add is the textbook chord-and-tangent addition.
func (e ecCurve) add(p, q ecPoint) ecPoint {
	switch {
	case p.inf:
		return q
	case q.inf:
		return p
	}
	var lambda *big.Int
	if p.x.Cmp(q.x) == 0 {
		if e.mod(new(big.Int).Add(p.y, q.y)).Sign() == 0 {
			return ecPoint{inf: true}
		}
		// Tangent: λ = (3x² + a) / 2y.
		num := new(big.Int).Mul(p.x, p.x)
		num.Mul(num, big.NewInt(3))
		num.Add(num, e.a)
		den := new(big.Int).Lsh(p.y, 1)
		lambda = num.Mul(num, den.ModInverse(e.mod(den), e.p))
	} else {
		num := new(big.Int).Sub(q.y, p.y)
		den := e.mod(new(big.Int).Sub(q.x, p.x))
		lambda = num.Mul(num, den.ModInverse(den, e.p))
	}
	e.mod(lambda)
	x := new(big.Int).Mul(lambda, lambda)
	x.Sub(x, p.x)
	x.Sub(x, q.x)
	e.mod(x)
	y := new(big.Int).Sub(p.x, x)
	y.Mul(y, lambda)
	y.Sub(y, p.y)
	return ecPoint{x: x, y: e.mod(y)}
}

// mul is k·p for k ≥ 0 by double-and-add.
func (e ecCurve) mul(p ecPoint, k *big.Int) ecPoint {
	acc := ecPoint{inf: true}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = e.add(acc, acc)
		if k.Bit(i) == 1 {
			acc = e.add(acc, p)
		}
	}
	return acc
}

// chain holds an arithmetic chain's start P_0 and step D.
type chain struct {
	e     ecCurve
	p0, d ecPoint
}

// checkChain confirms that pts is an arithmetic chain P_i = P_0 + i·D of
// points on the curve and returns P_0 and D. Each step is checked without
// inversions: with D = (xd, yd) and P_i ≠ ±D, P_{i+1} = P_i + D iff
// (yd−yi)² = (x_{i+1}+xi+xd)(xd−xi)² and (y_{i+1}+yi)(xd−xi) = (yd−yi)(xi−x_{i+1}).
func checkChain(c *curve.Curve, pts []curve.PointAffine) (*chain, error) {
	e := newECCurve(c)
	if len(pts) < 2 {
		return nil, fmt.Errorf("chain needs at least 2 points, got %d", len(pts))
	}
	prev := e.fromAffine(c, &pts[0])
	if prev.inf || !e.onCurve(prev) {
		return nil, fmt.Errorf("P_0 is not a finite curve point")
	}
	next := e.fromAffine(c, &pts[1])
	d := e.add(next, e.neg(prev))
	if d.inf || !e.onCurve(d) {
		return nil, fmt.Errorf("chain step is not a finite curve point")
	}
	t1, t2, t3 := new(big.Int), new(big.Int), new(big.Int)
	for i := 1; i < len(pts); i++ {
		cur := e.fromAffine(c, &pts[i])
		if cur.inf {
			return nil, fmt.Errorf("P_%d is infinity", i)
		}
		if prev.x.Cmp(d.x) == 0 {
			if !e.equal(e.add(prev, d), cur) {
				return nil, fmt.Errorf("P_%d ≠ P_%d + D", i, i-1)
			}
		} else {
			dy := t1.Sub(d.y, prev.y)
			dx := t2.Sub(d.x, prev.x)
			// x check: dy² − (x_{i+1}+xi+xd)·dx² ≡ 0
			lhs := new(big.Int).Mul(dy, dy)
			s := t3.Add(cur.x, prev.x)
			s.Add(s, d.x)
			rhs := new(big.Int).Mul(dx, dx)
			rhs.Mul(rhs, s)
			if e.mod(lhs.Sub(lhs, rhs)).Sign() != 0 {
				return nil, fmt.Errorf("P_%d ≠ P_%d + D (x)", i, i-1)
			}
			// y check: (y_{i+1}+yi)·dx − dy·(xi−x_{i+1}) ≡ 0
			lhs.Add(cur.y, prev.y)
			lhs.Mul(lhs, dx)
			rhs.Sub(prev.x, cur.x)
			rhs.Mul(rhs, dy)
			if e.mod(lhs.Sub(lhs, rhs)).Sign() != 0 {
				return nil, fmt.Errorf("P_%d ≠ P_%d + D (y)", i, i-1)
			}
		}
		if i > 1 && !e.onCurve(cur) {
			return nil, fmt.Errorf("P_%d is not on the curve", i)
		}
		prev = cur
	}
	return &chain{e: e, p0: e.fromAffine(c, &pts[0]), d: d}, nil
}

// expected is Σ scalars[i]·P_i = (Σ x_i)·P_0 + (Σ i·x_i)·D.
func (ch *chain) expected(scalars []bigint.Nat) ecPoint {
	s0, s1, ix := new(big.Int), new(big.Int), new(big.Int)
	for i, k := range scalars {
		x := k.ToBig()
		s0.Add(s0, x)
		s1.Add(s1, ix.Mul(x, big.NewInt(int64(i))))
	}
	return ch.e.add(ch.e.mul(ch.p0, s0), ch.e.mul(ch.d, s1))
}

// matchesXYZZ reports whether the XYZZ point (X/ZZ, Y/ZZZ) equals want,
// by cross-multiplication in canonical integers.
func (ch *chain) matchesXYZZ(c *curve.Curve, got *curve.PointXYZZ, want ecPoint) bool {
	if got == nil {
		return false
	}
	zz, zzz := c.Fp.ToBig(got.ZZ), c.Fp.ToBig(got.ZZZ)
	if want.inf || zz.Sign() == 0 {
		return want.inf && zz.Sign() == 0
	}
	e := ch.e
	x := e.mod(new(big.Int).Mul(want.x, zz))
	y := e.mod(new(big.Int).Mul(want.y, zzz))
	return x.Cmp(c.Fp.ToBig(got.X)) == 0 && y.Cmp(c.Fp.ToBig(got.Y)) == 0
}

// matchesEncoded reports whether an uncompressed SEC1-style encoding —
// 0x04 ‖ x ‖ y big-endian, or an all-zero infinity — equals want.
func (ch *chain) matchesEncoded(got []byte, want ecPoint) bool {
	es := (ch.e.p.BitLen() + 7) / 8
	if len(got) != 1+2*es {
		return false
	}
	if got[0] == 0x00 {
		return want.inf
	}
	if got[0] != 0x04 || want.inf {
		return false
	}
	x := new(big.Int).SetBytes(got[1 : 1+es])
	y := new(big.Int).SetBytes(got[1+es:])
	return x.Cmp(want.x) == 0 && y.Cmp(want.y) == 0
}
