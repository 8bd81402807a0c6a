package spice

import "math"

// Dense kernels of the nodal solve, all on row-major float64 matrices.
// The two cubic steps — forming V·Vᵀ and factoring S — share one
// cache-tiled lower-triangle update, so no system size pays for an
// untiled loop.

const (
	// tileK is the k extent of one update panel: the four rows of a 2×2
	// register block stay in L1.
	tileK = 256
	// tileJ is the number of j rows whose panel is reused from L2 across
	// all i, and the block width of the Cholesky factorization.
	tileJ = 64
)

// dot returns x·y over len(x) entries (y at least as long).
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(x); k += 4 {
		s0 += x[k] * y[k]
		s1 += x[k+1] * y[k+1]
		s2 += x[k+2] * y[k+2]
		s3 += x[k+3] * y[k+3]
	}
	for ; k < len(x); k++ {
		s0 += x[k] * y[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy adds a·x to y over len(x) entries.
func axpy(y, x []float64, a float64) {
	y = y[:len(x)]
	for k, xk := range x {
		y[k] += a * xk
	}
}

// dot2x2 returns the four dot products of a0 and a1 with b0 and b1, over
// len(b0) entries: the register block of lowerUpdate. Wider blocks spill
// registers on amd64 and run slower, and so does this one inlined into
// lowerUpdate, whose loop state then spills to the stack.
//
//go:noinline
func dot2x2(a0, a1, b0, b1 []float64) (s00, s01, s10, s11 float64) {
	n := len(b0)
	b1, a0, a1 = b1[:n], a0[:n], a1[:n]
	for k, x := range b0 {
		y := b1[k]
		s00 += a0[k] * x
		s01 += a0[k] * y
		s10 += a1[k] * x
		s11 += a1[k] * y
	}
	return
}

// lowerUpdate subtracts a[i,k0:k1]·a[j,k0:k1] from c[i,j] for every row i
// in [i0,i1) and column j in [j0,j1) with j <= i; lda and ldc are the row
// strides. c may alias a when [j0,j1) and [k0,k1) do not overlap.
func lowerUpdate(c []float64, ldc int, a []float64, lda, i0, i1, j0, j1, k0, k1 int) {
	for kb := k0; kb < k1; kb += tileK {
		ke := min(kb+tileK, k1)
		for jb := j0; jb < j1; jb += tileJ {
			je := min(jb+tileJ, j1)
			i := max(i0, jb)
			for ; i+2 <= i1; i += 2 {
				a0 := a[i*lda+kb : i*lda+ke]
				a1 := a[(i+1)*lda+kb : (i+1)*lda+ke]
				c0, c1 := c[i*ldc:(i+1)*ldc], c[(i+1)*ldc:(i+2)*ldc]
				// Columns j <= i belong to both rows.
				jf := min(je, i+1)
				j := jb
				for ; j+2 <= jf; j += 2 {
					s00, s01, s10, s11 := dot2x2(a0, a1, a[j*lda+kb:j*lda+ke], a[(j+1)*lda+kb:(j+1)*lda+ke])
					c0[j] -= s00
					c0[j+1] -= s01
					c1[j] -= s10
					c1[j+1] -= s11
				}
				if j < jf {
					b := a[j*lda+kb : j*lda+ke]
					c0[j] -= dot(a0, b)
					c1[j] -= dot(a1, b)
				}
				if jb <= i+1 && i+1 < je {
					c1[i+1] -= dot(a1, a1) // the diagonal of the second row
				}
			}
			if i < i1 {
				ai := a[i*lda+kb : i*lda+ke]
				for j := jb; j < min(je, i+1); j++ {
					c[i*ldc+j] -= dot(ai, a[j*lda+kb:j*lda+ke])
				}
			}
		}
	}
}

// cholesky factors the symmetric positive definite n×n matrix whose lower
// half s holds (row-major) into L·Lᵀ, overwriting that half with L. It is
// left-looking by blocks of tileJ columns: lowerUpdate applies every
// finished column to the next block, which is then factored by dot
// products within the block. It returns -1, or the index of the first
// non-positive pivot.
func cholesky(s []float64, n int) int {
	for jb := 0; jb < n; jb += tileJ {
		je := min(jb+tileJ, n)
		lowerUpdate(s, n, s, n, jb, n, jb, je, 0, jb)
		for i := jb; i < n; i++ {
			row := s[i*n : i*n+n]
			for j := jb; j < min(je, i+1); j++ {
				x := row[j] - dot(row[jb:j], s[j*n+jb:j*n+j])
				if j < i {
					row[j] = x / s[j*n+j]
					continue
				}
				if !(x > 0) {
					return i
				}
				row[i] = math.Sqrt(x)
			}
		}
	}
	return -1
}

// cholSolve overwrites x with the solution of L·Lᵀ·y = x, L the factor
// cholesky left in s.
func cholSolve(s []float64, n int, x []float64) {
	for i := 0; i < n; i++ {
		x[i] = (x[i] - dot(s[i*n:i*n+i], x)) / s[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		x[i] /= s[i*n+i]
		axpy(x, s[i*n:i*n+i], -x[i])
	}
}
