package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// The host's cores do not run at one speed: on a shared host, what other
// guests run on the same physical core (or its hyperthread sibling)
// slows every instruction, in CPU time too. So an untraced run also
// measures the speed of the core it runs on, with a fixed reference
// kernel owned by the benchmark, and times the program on a clock scaled
// to a core that runs the kernel in its nominal time. A change to the
// program does not change the kernel, so it moves the scaled figures as
// it moves the raw ones. NOTES.md ("How time is measured") gives the
// measurements behind this.

// refKernel is a fixed piece of reference work and its CPU time on a
// quiet core of the 2-vCPU Xeon (Sapphire Rapids) host the benchmark was
// tuned on. The nominal time sets only the scale of the reported times.
type refKernel struct {
	name    string
	run     func()
	nominal time.Duration
}

var (
	// intKernel follows the integer, hashing and pointer-chasing work of
	// BDDs, labeling, mapping and the server.
	intKernel = refKernel{"integer", intWork, 1200 * time.Microsecond}
	// fpKernel follows floating-point work such as spice's nodal analysis.
	fpKernel = refKernel{"floating-point", fpWork, 290 * time.Microsecond}
)

// Speed meter settings: how often it samples, and how many recent
// samples make the current estimate.
const (
	sampleEvery = 100 * time.Millisecond
	speedWindow = 5
)

// Integer kernel data: a sort, a hash map and a dependent walk over a
// 256 KiB permutation, small enough to disturb the program's caches
// little. (A walk over 4 MiB followed the host's memory traffic rather
// than the program.)
var (
	intKeys    = refRandom(8192)
	intScratch = make([]uint32, len(intKeys))
	intMap     = make(map[uint32]int32, 4096)
	intPerm    = refPermutation(1 << 16)
)

func refRandom(n int) []uint32 {
	rng := rand.New(rand.NewSource(42))
	xs := make([]uint32, n)
	for i := range xs {
		xs[i] = rng.Uint32()
	}
	return xs
}

func refPermutation(n int) []int32 {
	rng := rand.New(rand.NewSource(7))
	out := make([]int32, n)
	for i, v := range rng.Perm(n) {
		out[i] = int32(v)
	}
	return out
}

// intSink keeps the integer kernel's result live.
var intSink int

// intWork is the integer reference work. It allocates nothing.
func intWork() {
	copy(intScratch, intKeys)
	slices.Sort(intScratch)
	clear(intMap)
	for i, x := range intKeys[:4096] {
		intMap[x] = int32(i)
	}
	s := 0
	for _, x := range intScratch[:4096] {
		s += int(intMap[x])
	}
	j := int32(0)
	for i := 0; i < 1<<15; i++ {
		j = intPerm[j]
	}
	intSink = s + int(j)
}

// Floating-point kernel data: a fixed diagonally dominant 64×64 matrix,
// its working copy and a right-hand side.
var (
	fpMatrix = refMatrix(64)
	fpLU     = make([]float64, len(fpMatrix))
	fpVec    = make([]float64, 64)
)

func refMatrix(n int) []float64 {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	return a
}

// fpWork is the floating-point reference work: an LU factorization of
// the fixed matrix and eight solves with it. It allocates nothing.
func fpWork() {
	const n = 64
	copy(fpLU, fpMatrix)
	for k := 0; k < n; k++ {
		prow := fpLU[k*n : k*n+n]
		for i := k + 1; i < n; i++ {
			row := fpLU[i*n : i*n+n]
			f := row[k] / prow[k]
			row[k] = f
			for j := k + 1; j < n; j++ {
				row[j] -= f * prow[j]
			}
		}
	}
	for r := 0; r < 8; r++ {
		for i := range fpVec {
			fpVec[i] = float64(i + r)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				fpVec[i] -= fpLU[i*n+j] * fpVec[j]
			}
		}
		for i := n - 1; i >= 0; i-- {
			for j := i + 1; j < n; j++ {
				fpVec[i] -= fpLU[i*n+j] * fpVec[j]
			}
			fpVec[i] /= fpLU[i*n+i]
		}
	}
}

// speedMeter runs a reference kernel every sampleEvery on the run's one
// P, so it shares the core the program runs on, and keeps a clock of the
// program's CPU time scaled to the reference core: each stretch of CPU
// time between two samples counts at the speed the last speedWindow
// samples measured. The meter's own CPU time is left out of the clock.
type speedMeter struct {
	kernel refKernel
	stopc  chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	own     time.Duration // CPU time the meter has used
	samples []float64     // kernel times, in ms
	speed   float64       // current estimate: nominal ÷ recent kernel time
	base    time.Duration // program CPU time at the last sample
	scaled  time.Duration // scaled program CPU time up to base
}

// startSpeedMeter takes speedWindow samples to start from, then samples
// in the background until stop.
func startSpeedMeter(k refKernel) *speedMeter {
	m := &speedMeter{kernel: k, stopc: make(chan struct{})}
	for i := 0; i < speedWindow; i++ {
		m.sample()
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stopc:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

// sample closes the current stretch at the current speed, then times the
// kernel and updates the speed. The kernel runs twice and the second,
// warm run is timed, so the sample does not depend on what the program
// left in the caches.
func (m *speedMeter) sample() {
	start := cpuNow()
	m.mu.Lock()
	prog := start - m.own
	m.scaled += time.Duration(float64(prog-m.base) * m.speed)
	m.base = prog
	m.mu.Unlock()

	m.kernel.run()
	mid := cpuNow()
	m.kernel.run()
	end := cpuNow()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.own += end - start
	m.samples = append(m.samples, ms(end-mid))
	recent := m.samples[max(0, len(m.samples)-speedWindow):]
	m.speed = ms(m.kernel.nominal) / median(recent)
}

// cpu is the scaled CPU clock.
func (m *speedMeter) cpu() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scaled + time.Duration(float64(cpuNow()-m.own-m.base)*m.speed)
}

// stop ends sampling and returns the run's median speed relative to the
// reference core (0.5: the core ran the kernel at half speed) and the
// number of samples.
func (m *speedMeter) stop() (speed float64, samples int) {
	close(m.stopc)
	m.wg.Wait()
	return ms(m.kernel.nominal) / median(m.samples), len(m.samples)
}
