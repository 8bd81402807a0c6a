package xbar

import (
	"context"
	"math"
	"math/bits"
)

// matcher is the greedy stage's bipartite matcher together with the
// compiled relation it matches over. Every buffer is reused from one kuhn
// call to the next, so a placer's steady-state sweep allocates nothing.
type matcher struct {
	// adj is the relation, one row of stride words per right vertex
	// (physical wire): bit i of row w is set when left vertex (logical
	// wire) i may take w. Bits at and above nLeft are zero.
	adj    []uint64
	stride int

	// cand is the relation in search order, one row of cstride words per
	// left vertex: bit p of row i is set when i may take order[p].
	cand    []uint64
	cstride int

	matchL, matchR []int
	// The positions of the order seen in the current augmenting search,
	// 64 to a word: word k is all unseen unless stamp[k] == epoch, and
	// then seen[k] has a bit set for each seen position. next links each
	// fully seen word to a later word no further than the first one that
	// is not (a union-find over words, with path halving); word cstride is
	// the sentinel.
	seen  []uint64
	stamp []uint32
	next  []int
	epoch uint32
	stack []frame

	// tries counts the right vertices claimed by augmenting searches, over
	// the matcher's lifetime: the search's unit of work.
	tries int
}

// frame is one level of an augmenting search: left vertex left, trying
// right vertices from position pos of the order on.
type frame struct{ left, pos int }

// reset sizes the relation for nLeft x nRight and makes it complete: every
// left vertex may take every right vertex.
func (m *matcher) reset(nLeft, nRight int) {
	m.stride = (nLeft + 63) / 64
	m.adj = grow(m.adj, nRight*m.stride)
	for w := 0; w < nRight; w++ {
		fullRow(m.row(w), nLeft)
	}
}

// fullRow sets bits 0..n-1 of row and clears the rest.
func fullRow(row []uint64, n int) {
	for k := range row {
		row[k] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		row[len(row)-1] = 1<<r - 1
	}
}

// row returns right vertex w's row of the relation.
func (m *matcher) row(w int) []uint64 { return m.adj[w*m.stride : (w+1)*m.stride] }

// kuhn matches nLeft left vertices onto the len(order) right vertices of
// the relation, by depth-first augmenting paths that try right vertices in
// the given order (a permutation of 0..len(order)-1), and reports whether
// every left vertex was matched. It stops at the first left vertex that
// cannot be matched, since no caller uses a partial matching. It returns
// the left-side assignment (-1 when unmatched), valid until the next call.
// ctx is checked once per left vertex; on expiry kuhn stops with the ctx
// error and no verdict.
//
// The search is the textbook recursive one: each level walks order from
// its start, skipping right vertices already seen in this augmenting
// search and those the relation forbids, and recurses into the owner of
// the first vertex it claims. kuhn replays that walk step for step, and so
// returns the same matching, but a level jumps over a run of seen
// positions through a union-find and over a run of forbidden ones 64 at a
// time, instead of testing each position it passes.
func (m *matcher) kuhn(ctx context.Context, nLeft int, order []int) ([]int, bool, error) {
	n := len(order)
	m.matchL, m.matchR = fill(grow(m.matchL, nLeft), -1), fill(grow(m.matchR, n), -1)
	if words := (n+63)/64 + 1; len(m.stamp) < words {
		m.seen, m.stamp, m.next, m.epoch = make([]uint64, words), make([]uint32, words), make([]int, words), 0
	}
	if cap(m.stack) < nLeft {
		m.stack = make([]frame, 0, nLeft)
	}
	m.permute(nLeft, order)
	for root := 0; root < nLeft; root++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if !m.augment(root, order) {
			return m.matchL, false, nil
		}
	}
	return m.matchL, true, nil
}

// permute fills cand from the relation and order: the relation's rows in
// search order, transposed 64x64 bits at a time, O(nLeft·cstride) words.
func (m *matcher) permute(nLeft int, order []int) {
	m.cstride = (len(order) + 63) / 64
	m.cand = grow(m.cand, nLeft*m.cstride)
	var blk [64]uint64
	for pb := 0; pb < m.cstride; pb++ {
		for ib := 0; ib < m.stride; ib++ {
			for q := range blk {
				blk[q] = 0
				if p := pb*64 + q; p < len(order) {
					blk[q] = m.adj[order[p]*m.stride+ib]
				}
			}
			transpose64(&blk)
			for j := 0; j < 64 && ib*64+j < nLeft; j++ {
				m.cand[(ib*64+j)*m.cstride+pb] = blk[j]
			}
		}
	}
}

// transpose64 transposes a 64x64 bit matrix in place (bit c of a[r]
// becomes bit r of a[c]) by swapping off-diagonal blocks of halving size.
func transpose64(a *[64]uint64) {
	mask := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k++ {
			if k&j == 0 {
				t := (a[k]>>j ^ a[k|j]) & mask
				a[k|j] ^= t
				a[k] ^= t << j
			}
		}
		mask ^= mask << (j >> 1)
	}
}

// augment runs one augmenting search from left vertex root and, when it
// reaches a free right vertex, flips the path.
func (m *matcher) augment(root int, order []int) bool {
	if m.epoch == math.MaxUint32 {
		clear(m.stamp)
		m.epoch = 0
	}
	m.epoch++
	n := len(order)
	stack := append(m.stack[:0], frame{left: root})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		p := m.first(f.left, f.pos, n)
		if p == n { // dead end: the parent resumes after the vertex it claimed
			stack = stack[:len(stack)-1]
			continue
		}
		m.claim(p)
		f.pos = p
		if owner := m.matchR[order[p]]; owner >= 0 {
			stack = append(stack, frame{left: owner})
			continue
		}
		for _, f := range stack {
			w := order[f.pos]
			m.matchL[f.left], m.matchR[w] = w, f.left
		}
		m.stack = stack
		return true
	}
	m.stack = stack
	return false
}

// first returns the first position at or after p whose right vertex left
// vertex i may take and the current search has not seen, or n.
func (m *matcher) first(i, p, n int) int {
	row := m.cand[i*m.cstride : (i+1)*m.cstride]
	k, mask := p>>6, ^uint64(0)<<(p&63)
	for {
		if j := m.find(k); j != k {
			k, mask = j, ^uint64(0)
		}
		if k == len(row) {
			return n
		}
		x := row[k] & mask
		if m.stamp[k] == m.epoch {
			x &^= m.seen[k]
		}
		if x != 0 {
			return k*64 + bits.TrailingZeros64(x)
		}
		k, mask = k+1, ^uint64(0)
	}
}

// claim marks position p seen in the current search.
func (m *matcher) claim(p int) {
	k := p >> 6
	if m.stamp[k] != m.epoch {
		m.stamp[k], m.seen[k] = m.epoch, 0
	}
	m.seen[k] |= 1 << (p & 63)
	if m.seen[k] == ^uint64(0) {
		m.next[k] = k + 1
	}
	m.tries++
}

// full reports whether every position of word k is seen in the current
// search.
func (m *matcher) full(k int) bool { return m.stamp[k] == m.epoch && m.seen[k] == ^uint64(0) }

// find returns the first word at or after k that is not fully seen.
func (m *matcher) find(k int) int {
	for m.full(k) {
		q := m.next[k]
		if m.full(q) {
			m.next[k] = m.next[q]
		}
		k = q
	}
	return k
}

// grow returns s resized to n, reusing its storage when it is large
// enough. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fill sets every element of s to v and returns s.
func fill(s []int, v int) []int {
	for i := range s {
		s[i] = v
	}
	return s
}
