package spice

import "math"

// Dense kernels of the nodal solve, all on row-major float64 matrices.
// The two cubic steps — forming V·Vᵀ and factoring S — share one
// cache-tiled lower-triangle update, so no system size pays for an
// untiled loop.
//
// There are two kernel sets: the Go kernels below, and AVX2 assembly
// (linalg_amd64.s) that every solver runs when the CPU has AVX2 — chosen
// once, at start-up, from CPUID. Both sets compute every entry with the
// same IEEE operations in the same order, so they agree to the float bit
// and testdata/golden.txt pins both: the per-entry summation order is part
// of that contract, not an implementation detail.
//
//   - dot sums in four lanes, lane l taking the products at k ≡ l mod 4,
//     the tail of fewer than four products going into lane 0, and returns
//     (s0+s1)+(s2+s3).
//   - axpy and scale are elementwise: one rounded product per entry, and
//     axpy one rounded add.
//   - In lowerUpdate, each entry a row pair covers in column pairs (the
//     dot2x2 block) is one sum per k tile: it starts at +0, adds one
//     rounded product per k in k order (a multiply, then an add: never a
//     fused multiply-add) and is then subtracted from c. Every other entry
//     — an odd leftover column, the second row's diagonal, an odd last
//     row — is one dot per k tile.
//   - In cholesky, each entry within a column block is its row's dot with
//     the pivot row over the block's columns left of it, subtracted, then
//     divided by the pivot (the diagonal: the square root of the
//     difference).
//
// The AVX2 kernels keep one vector lane per entry, so each lane repeats
// the Go kernel's operations: the row-pair step runs across the columns
// of a packed panel of the tile's j rows, and cholRows across eight rows
// transposed. The Go row-pair step reads the rows in place.

const (
	// tileK is the k extent of one update panel: the four rows of a 2×2
	// register block stay in L1.
	tileK = 256
	// tileJ is the number of j rows whose panel is reused from L2 across
	// all i, and the block width of the Cholesky factorization.
	tileJ = 64
)

// linalg runs the dense kernels for one solving goroutine: the AVX2 set
// when avx2 is set (only ever where hasAVX2 holds), else the Go set.
// panel is the AVX2 kernels' packing scratch (the row-pair step's panels,
// cholRows' transposed rows), reused across solves so a solve allocates
// nothing once it has grown.
type linalg struct {
	avx2  bool
	panel []float64
}

// dotGo returns x·y over len(x) entries (y at least as long).
func dotGo(x, y []float64) float64 {
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

// axpyGo adds a·x to y over len(x) entries.
func axpyGo(y, x []float64, a float64) {
	y = y[:len(x)]
	for k, xk := range x {
		y[k] += a * xk
	}
}

// scaleGo multiplies x by r entrywise over len(x) entries.
func scaleGo(x, r []float64) {
	r = r[:len(x)]
	for k := range x {
		x[k] *= r[k]
	}
}

// pairsGo is the Go row-pair step: it subtracts from c0[j] and c1[j], for
// the even len(c0) columns j, the dot products of a0 and a1 with row j of
// b (row stride ldb, len(a0) entries), two columns per dot2x2.
func pairsGo(c0, c1, a0, a1, b []float64, ldb int) {
	n := len(a0)
	for j := 0; j+2 <= len(c0); j += 2 {
		s00, s01, s10, s11 := dot2x2(a0, a1, b[j*ldb:j*ldb+n], b[(j+1)*ldb:(j+1)*ldb+n])
		c0[j] -= s00
		c0[j+1] -= s01
		c1[j] -= s10
		c1[j+1] -= s11
	}
}

// dot2x2 returns the four dot products of a0 and a1 with b0 and b1, over
// len(b0) entries: the register block of the Go row-pair step. Wider
// blocks spill registers on amd64 and run slower, and so does this one
// inlined into its caller, whose loop state then spills to the stack.
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
func (la *linalg) lowerUpdate(c []float64, ldc int, a []float64, lda, i0, i1, j0, j1, k0, k1 int) {
	for kb := k0; kb < k1; kb += tileK {
		ke := min(kb+tileK, k1)
		for jb := j0; jb < j1; jb += tileJ {
			je := min(jb+tileJ, j1)
			i := max(i0, jb)
			var b []float64
			if i+2 <= i1 {
				b = la.tile(a, lda, jb, je, kb, ke)
			}
			for ; i+2 <= i1; i += 2 {
				a0 := a[i*lda+kb : i*lda+ke]
				a1 := a[(i+1)*lda+kb : (i+1)*lda+ke]
				c0, c1 := c[i*ldc:(i+1)*ldc], c[(i+1)*ldc:(i+2)*ldc]
				// Columns j <= i belong to both rows; the row-pair step
				// takes them in pairs.
				jf := min(je, i+1)
				j := jb + (jf-jb)&^1
				la.pairs(c0[jb:j], c1[jb:j], a0, a1, b, lda)
				if j < jf {
					b := a[j*lda+kb : j*lda+ke]
					c0[j] -= la.dot(a0, b)
					c1[j] -= la.dot(a1, b)
				}
				if jb <= i+1 && i+1 < je {
					c1[i+1] -= la.dot(a1, a1) // the diagonal of the second row
				}
			}
			if i < i1 {
				ai := a[i*lda+kb : i*lda+ke]
				for j := jb; j < min(je, i+1); j++ {
					c[i*ldc+j] -= la.dot(ai, a[j*lda+kb:j*lda+ke])
				}
			}
		}
	}
}

// cholesky factors the symmetric positive definite n×n matrix whose lower
// half s holds (row-major) into L·Lᵀ, overwriting that half with L. It is
// left-looking by blocks of tileJ columns: lowerUpdate applies every
// finished column to the next block, which is then factored by dot
// products within the block, in groups of eight rows. The block columns
// left of a group's first row need only finished rows, so cholRows takes
// them for the whole group; the group's own triangle then follows row by
// row. It returns -1, or the index of the first non-positive pivot.
func (la *linalg) cholesky(s []float64, n int) int {
	for jb := 0; jb < n; jb += tileJ {
		je := min(jb+tileJ, n)
		la.lowerUpdate(s, n, s, n, jb, n, jb, je, 0, jb)
		for g := jb; g < n; g += 8 {
			ge := min(g+8, n)
			la.cholRows(s, n, jb, min(g, je), g, ge)
			for i := g; i < min(ge, je); i++ {
				row := s[i*n : i*n+n]
				for j := g; j <= i; j++ {
					x := row[j] - la.dot(row[jb:j], s[j*n+jb:j*n+j])
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
	}
	return -1
}

// cholRowsGo sets entry (i,j) of the rows [i0,i1) and the columns [jb,je)
// of a column block starting at jb, whose rows j < je are final, to
// (s[i,j] − s[i,jb:j]·s[j,jb:j]) / s[j,j] — the cholesky loop's own
// arithmetic — row by row.
func (la *linalg) cholRowsGo(s []float64, n, jb, je, i0, i1 int) {
	for i := i0; i < i1; i++ {
		row := s[i*n : i*n+je]
		for j := jb; j < je; j++ {
			row[j] = (row[j] - la.dot(row[jb:j], s[j*n+jb:j*n+j])) / s[j*n+j]
		}
	}
}

// cholSolve overwrites x with the solution of L·Lᵀ·y = x, L the factor
// cholesky left in s.
func (la *linalg) cholSolve(s []float64, n int, x []float64) {
	for i := 0; i < n; i++ {
		x[i] = (x[i] - la.dot(s[i*n:i*n+i], x)) / s[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		x[i] /= s[i*n+i]
		la.axpy(x, s[i*n:i*n+i], -x[i])
	}
}
