package spice

// hasAVX2 reports whether the CPU and the operating system support AVX2:
// CPUID's AVX, OSXSAVE and AVX2 bits, and XGETBV's XMM and YMM state.
// Every solver runs the AVX2 kernels when it holds.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYMMState != xmmYMMState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low and high halves of XCR0.
func xgetbv() (eax, edx uint32)

// The assembly kernels (linalg_amd64.s). Each repeats its Go kernel's IEEE
// operations entry for entry; the methods below check the lengths the
// assembly relies on.

//go:noescape
func dotAVX2(x, y []float64) float64

//go:noescape
func axpyAVX2(y, x []float64, a float64)

//go:noescape
func scaleAVX2(x, r []float64)

// pairsAVX2 subtracts from c0[j] and c1[j], for j < len(c0) (even), the sums
// Σ_k a0[k]·b_jk and Σ_k a1[k]·b_jk over k < len(a0), b_jk the panel
// entry tile stores for row j, column k. One vector lane holds one sum:
// it starts at +0 and adds one rounded product per k, in k order, as
// dot2x2 does.
//
//go:noescape
func pairsAVX2(c0, c1, a0, a1, p []float64)

// cholRowsAVX2 runs cholRowsGo's arithmetic on eight rows at once, one
// per vector lane; the rows come transposed in t.
//
//go:noescape
func cholRowsAVX2(t, l []float64, ldl int)

//go:noescape
func transposeAVX2(dst []float64, ldd int, src []float64, lds, rows, cols int)

// transpose sets dst[c·ldd+r] = src[r·lds+c] for r < rows and c < cols:
// 4×4 blocks in AVX2, the edges in Go.
func transpose(dst []float64, ldd int, src []float64, lds, rows, cols int) {
	if rows == 0 || cols == 0 {
		return
	}
	_, _ = src[(rows-1)*lds+cols-1], dst[(cols-1)*ldd+rows-1]
	r4, c4 := rows&^3, cols&^3
	if r4 > 0 && c4 > 0 {
		transposeAVX2(dst, ldd, src, lds, r4, c4)
	}
	for r := 0; r < rows; r++ {
		c := c4
		if r >= r4 {
			c = 0
		}
		for ; c < cols; c++ {
			dst[c*ldd+r] = src[r*lds+c]
		}
	}
}

// dot returns x·y over len(x) entries (y at least as long).
func (la *linalg) dot(x, y []float64) float64 {
	if la.avx2 {
		return dotAVX2(x, y[:len(x)])
	}
	return dotGo(x, y)
}

// axpy adds a·x to y over len(x) entries.
func (la *linalg) axpy(y, x []float64, a float64) {
	if la.avx2 {
		axpyAVX2(y[:len(x)], x, a)
		return
	}
	axpyGo(y, x, a)
}

// scale multiplies x by r entrywise over len(x) entries.
func (la *linalg) scale(x, r []float64) {
	if la.avx2 {
		scaleAVX2(x, r[:len(x)])
		return
	}
	scaleGo(x, r)
}

// tile returns rows [j0,j1) × columns [k0,k1) of a (row stride lda) as
// the row-pair step reads them. The Go step reads them in place. The
// AVX2 one reads a panel: the rows go in groups of 16, each group
// k-major, entry (j, k) at (j'/16)·16·K + (k-k0)·16 + j'%16 with j' = j-j0
// and K = k1-k0, so the kernel streams each group with unit stride.
func (la *linalg) tile(a []float64, lda, j0, j1, k0, k1 int) []float64 {
	if !la.avx2 {
		return a[j0*lda+k0:]
	}
	kn, w := k1-k0, j1-j0
	la.panel = grow(la.panel, (w+15)&^15*kn)
	p := la.panel
	for g := 0; g < w; g += 16 {
		transpose(p[g*kn:], 16, a[(j0+g)*lda+k0:], lda, min(16, w-g), kn)
	}
	return p
}

// pairs is lowerUpdate's row-pair step over the even len(c0) columns,
// whose j rows b holds as tile returned them (ldb: a's row stride).
func (la *linalg) pairs(c0, c1, a0, a1, b []float64, ldb int) {
	if !la.avx2 {
		pairsGo(c0, c1, a0, a1, b, ldb)
		return
	}
	if n := len(c0); n > 0 && len(a0) > 0 {
		_, _ = c1[n-1], a1[len(a0)-1]
		_ = b[(n+15)&^15*len(a0)-1]
		pairsAVX2(c0, c1, a0, a1, b)
	}
}

// cholRows is cholRowsGo on the AVX2 kernel, which takes the (at most
// eight) rows transposed into the panel — free once the block's
// lowerUpdate is done — with any spare lanes zero.
func (la *linalg) cholRows(s []float64, n, jb, je, i0, i1 int) {
	if !la.avx2 {
		la.cholRowsGo(s, n, jb, je, i0, i1)
		return
	}
	if je <= jb {
		return
	}
	w, r := je-jb, i1-i0
	la.panel = grow(la.panel, 8*w)
	t := la.panel
	if r < 8 {
		clear(t)
	}
	transpose(t, 8, s[i0*n+jb:], n, r, w)
	cholRowsAVX2(t, s[jb*n+jb:(je-1)*n+je], n)
	transpose(s[i0*n+jb:], n, t, 8, w, r)
}
