//go:build !amd64

package spice

// No assembly kernels off amd64: every solver runs the Go set.
const hasAVX2 = false

func (la *linalg) dot(x, y []float64) float64 { return dotGo(x, y) }

func (la *linalg) axpy(y, x []float64, a float64) { axpyGo(y, x, a) }

func (la *linalg) scale(x, r []float64) { scaleGo(x, r) }

func (la *linalg) tile(a []float64, lda, j0, j1, k0, k1 int) []float64 { return a[j0*lda+k0:] }

func (la *linalg) pairs(c0, c1, a0, a1, b []float64, ldb int) { pairsGo(c0, c1, a0, a1, b, ldb) }

func (la *linalg) cholRows(s []float64, n, jb, je, i0, i1 int) {
	la.cholRowsGo(s, n, jb, je, i0, i1)
}
