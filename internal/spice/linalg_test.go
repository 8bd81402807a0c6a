package spice

import (
	"fmt"
	"math"
	"testing"
)

// FuzzKernelsVsGo is the bit-identity property of the AVX2 kernels: on
// the same inputs, dot (lengths 0–300), axpy, scale, both lowerUpdate
// calls of a solve — V·Vᵀ into a fresh S, and cholesky's aliased update
// of a column block by the finished columns left of it — cholesky and
// cholSolve give the Go kernels' float bits. Shapes cross tileJ and tileK
// and have odd row and column edges; the entries span several binades
// and both signs, so any change of summation order shows.
func FuzzKernelsVsGo(f *testing.F) {
	if !hasAVX2 {
		f.Skip("no AVX2 on this CPU: the solve runs the Go kernels only")
	}
	f.Add(uint64(1))
	f.Add(uint64(2))
	f.Add(uint64(0xdeadbeef))
	for seed := uint64(100); seed < 106; seed++ {
		f.Add(seed * 0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		state := seed
		draw := func(n int) int { return int(splitmix64(&state) % uint64(n)) }
		fill := func(n int) []float64 { return randomFloats(&state, n) }
		simd, ref := &linalg{avx2: true}, &linalg{}

		n := draw(301)
		x, y := fill(n), fill(n+draw(3))
		sameBits(t, "dot", []float64{simd.dot(x, y)}, []float64{ref.dot(x, y)})
		a := randomFloats(&state, 1)[0]
		ySIMD, yRef := clone(y), clone(y)
		simd.axpy(ySIMD, x, a)
		ref.axpy(yRef, x, a)
		sameBits(t, "axpy", ySIMD, yRef)
		simd.scale(ySIMD[:n], x)
		ref.scale(yRef[:n], x)
		sameBits(t, "scale", ySIMD, yRef)

		// V·Vᵀ: ns rows of V, nl columns, into a random S.
		ns, nl := 1+draw(150), 1+draw(600)
		v, s := fill(ns*nl), fill(ns*ns)
		sSIMD, sRef := clone(s), clone(s)
		simd.lowerUpdate(sSIMD, ns, v, nl, 0, ns, 0, ns, 0, nl)
		ref.lowerUpdate(sRef, ns, v, nl, 0, ns, 0, ns, 0, nl)
		sameBits(t, fmt.Sprintf("lowerUpdate V·Vᵀ %dx%d", ns, nl), sSIMD, sRef)

		// cholesky's aliased call: columns [jb,je) of rows [jb,n) take the
		// finished columns [0,jb) of the same matrix.
		jb := draw(320)
		je := jb + 1 + draw(tileJ)
		m := je + draw(40)
		s = fill(m * m)
		sSIMD, sRef = clone(s), clone(s)
		simd.lowerUpdate(sSIMD, m, sSIMD, m, jb, m, jb, je, 0, jb)
		ref.lowerUpdate(sRef, m, sRef, m, jb, m, jb, je, 0, jb)
		sameBits(t, fmt.Sprintf("lowerUpdate aliased n=%d [%d,%d)", m, jb, je), sSIMD, sRef)

		// cholesky and cholSolve on a diagonally dominant matrix; one run
		// in four plants a negative pivot, which both sets must report at
		// the same row with the same partial factor.
		m = 1 + draw(200)
		s = fill(m * m)
		for i := 0; i < m; i++ {
			s[i*m+i] = 1
			for j := 0; j < m; j++ {
				if j != i {
					s[i*m+i] += math.Abs(s[max(i, j)*m+min(i, j)])
				}
			}
		}
		if draw(4) == 0 {
			k := draw(m)
			s[k*m+k] = -1
		}
		sSIMD, sRef = clone(s), clone(s)
		bad := simd.cholesky(sSIMD, m)
		if want := ref.cholesky(sRef, m); bad != want {
			t.Fatalf("cholesky n=%d: AVX2 pivot %d, Go %d", m, bad, want)
		}
		sameBits(t, fmt.Sprintf("cholesky n=%d", m), sSIMD, sRef)
		if bad < 0 {
			b := fill(m)
			bSIMD, bRef := clone(b), clone(b)
			simd.cholSolve(sSIMD, m, bSIMD)
			ref.cholSolve(sRef, m, bRef)
			sameBits(t, fmt.Sprintf("cholSolve n=%d", m), bSIMD, bRef)
		}
	})
}

// randomFloats draws n floats of both signs spread over 2^-8 .. 2^8.
func randomFloats(state *uint64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		e := int(splitmix64(state)%17) - 8
		xs[i] = math.Ldexp(unitFloat(state)*2-1, e)
	}
	return xs
}

func clone(xs []float64) []float64 { return append([]float64(nil), xs...) }

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x) on AVX2, %v (%#x) in Go", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// BenchmarkNodalKernels times the dense steps of one solve on both kernel
// sets: V·Vᵀ (lowerUpdate) and the factorization (cholesky) of an ns×ns
// Schur complement over nl eliminated nodes, in ns per multiply-add.
// (141, 146) is the int2float K=3 stack.
func BenchmarkNodalKernels(b *testing.B) {
	sets := []struct {
		name string
		la   *linalg
	}{{"go", &linalg{}}, {"avx2", &linalg{avx2: true}}}
	for _, set := range sets {
		if set.la.avx2 && !hasAVX2 {
			continue
		}
		for _, dims := range [][2]int{{141, 146}, {300, 320}} {
			ns, nl := dims[0], dims[1]
			state := uint64(ns*1000 + nl)
			v := randomFloats(&state, ns*nl)
			s := make([]float64, ns*ns)
			base := make([]float64, ns*ns)
			for i := 0; i < ns; i++ {
				base[i*ns+i] = float64(nl)
			}
			b.Run(fmt.Sprintf("set=%s/ns=%d/nl=%d/step=vvt", set.name, ns, nl), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(s, base)
					set.la.lowerUpdate(s, ns, v, nl, 0, ns, 0, ns, 0, nl)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(ns*(ns+1)/2*nl), "ns/madd")
			})
			// The factored matrix is n_l·I + V·Vᵀ, positive definite.
			factor := make([]float64, ns*ns)
			copy(factor, base)
			set.la.lowerUpdate(factor, ns, v, nl, 0, ns, 0, ns, 0, nl)
			for i := range factor {
				factor[i] = -factor[i] + 2*base[i]
			}
			madds := 0
			for i := 0; i < ns; i++ {
				madds += i * (i + 1) / 2
			}
			b.Run(fmt.Sprintf("set=%s/ns=%d/nl=%d/step=cholesky", set.name, ns, nl), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(s, factor)
					if k := set.la.cholesky(s, ns); k >= 0 {
						b.Fatalf("pivot %d not positive", k)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(madds), "ns/madd")
			})
		}
	}
}
