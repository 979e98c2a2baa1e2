package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the interpolated median (0 for no values).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p90 returns the nearest-rank 90th percentile and how many samples
// lie beyond it.
func p90(v []float64) (float64, int) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(0.9 * float64(len(s))))
	return s[k-1], len(s) - k
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// geomean returns the geometric mean of positive values (0 if any is
// not positive or there are none).
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var l float64
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(v)))
}

// The reference loop is a fixed, allocation-free mix of the work the
// simulator does on the host — copies, dependent loads, integer mixing
// and goroutine hand-offs over unbuffered channels — over a cache-sized
// working set plus a copy and dependent loads over working sets far
// larger than the caches, so it slows down with the machine both when
// neighbours take CPU time and when they take memory bandwidth.
// host_op_ref.* divide op times by the median of these loops, measured
// between batches.
const (
	refBytes    = 256 << 10 // copied refCopies times per loop
	refCopies   = 8
	refChase    = 1 << 18 // 1 MiB ring, walked for refSteps loads
	refSteps    = 1 << 16
	refMix      = 1 << 18
	refHops     = 1 << 12 // channel round trips to refEcho
	refBig      = 8 << 20 // copied once per loop
	refFar      = 4 << 22 // 16 MiB ring, walked for refFarSteps loads
	refFarSteps = 1 << 14
)

var (
	refPing = make(chan int)
	refPong = make(chan int)
	refSrc  = make([]byte, refBytes)
	refDst  = make([]byte, refBytes)
	refNext = chaseRing(refChase)
	bigSrc  = make([]byte, refBig)
	bigDst  = make([]byte, refBig)
	farNext = chaseRing(refFar)
	refSink uint64
)

// chaseRing returns a single random cycle over n slots.
func chaseRing(n int) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(0x243f6a8885a308d3)
	for i := n - 1; i > 0; i-- {
		x = mix64(x)
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]uint32, n)
	for i := 0; i < n; i++ {
		next[perm[i]] = perm[(i+1)%n]
	}
	return next
}

// refLoop runs the reference work once and returns its time in ms.
func refLoop() float64 {
	t0 := time.Now()
	for i := 0; i < refCopies; i++ {
		copy(refDst, refSrc)
		refSrc[i] = refDst[refBytes-1-i]
	}
	p := uint32(0)
	for i := 0; i < refSteps; i++ {
		p = refNext[p]
	}
	copy(bigDst, bigSrc)
	for i := 0; i < refFarSteps; i++ {
		p = farNext[p]
	}
	h := uint64(p)
	for i := 0; i < refMix; i++ {
		h = mix64(h + uint64(i))
	}
	go refEcho()
	v := int(h & 1)
	for i := 0; i < refHops; i++ {
		refPing <- v
		v = <-refPong
	}
	refPing <- -1 // stops refEcho, which answers once more
	<-refPong
	refSink += h + uint64(v)
	return msSince(t0)
}

// refEcho answers every value on refPing with its successor on refPong
// until it receives -1.
func refEcho() {
	for v := range refPing {
		refPong <- v + 1
		if v == -1 {
			return
		}
	}
}

// maxRSSBytes is the kernel's high-water resident set of the process.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}
