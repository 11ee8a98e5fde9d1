package main

import (
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark shares runs the same instructions at a speed that
// drifts over minutes (other tenants on the same cores and caches), and the
// program's CPU time per op drifts with it: a quarter of a ten-run set can
// run a third slower than the rest. A calibration kernel, fixed code of the
// benchmark's own that calls nothing in the program, is timed in thread CPU
// time every calibEvery all through an untraced run. Its 10th-percentile
// timing over the reference timing is the run's slowdown, and every
// time-based end-to-end metric is reported at reference speed: durations
// divided by the slowdown, rates multiplied by it. A slower host moves the
// metrics and the slowdown together; a change to the program moves only the
// metrics. The low percentile rather than the median keeps the program's
// own interference (interrupts charged to the sampling thread, caches it
// evicts) out of the slowdown: the fastest samples of a run see only the
// host. What the calibration cannot see is time the host takes the whole
// virtual CPU away without charging it to a thread, and disk latency, which
// set-up pays in the store's fsyncs.

// calibSlots is the kernel's table: 1<<16 entries (256 KiB), one random
// cycle, so that chasing it mixes cache latency with arithmetic the way
// the program's own pointer-heavy code does.
const (
	calibSlots = 1 << 16
	calibSteps = 100_000
	// calibEvery is the sampling period: a kernel run takes about 1 ms, so
	// the sampler takes about 1% of one core.
	calibEvery = 100 * time.Millisecond
	// calibQuantile is the quantile of the timings the slowdown is taken
	// from.
	calibQuantile = 0.1
	// calibRefUs is the reference timing: the kernel's typical 10th
	// percentile on the 2-vCPU Xeon (2.0 GHz) this benchmark was sized on,
	// so that the reported metrics read as that machine's figures.
	calibRefUs = 850.0
)

var calibTable = func() []uint32 {
	t := make([]uint32, calibSlots)
	for i := range t {
		t[i] = uint32(i)
	}
	// Sattolo's algorithm: a uniformly random single cycle.
	r := rand.New(rand.NewPCG(1, 2))
	for i := len(t) - 1; i > 0; i-- {
		j := r.IntN(i)
		t[i], t[j] = t[j], t[i]
	}
	return t
}()

var calibSink uint64

func calibKernel() {
	x := uint32(0)
	h := uint64(14695981039346656037)
	for range calibSteps {
		x = calibTable[x]
		h = (h ^ uint64(x)) * 1099511628211
	}
	calibSink += h
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrator times the kernel every calibEvery on a goroutine of its own,
// locked to its OS thread so that thread CPU time is the kernel's alone.
type calibrator struct {
	stopc chan struct{}
	done  chan []float64
	us    []float64
}

func startCalibration() *calibrator {
	stopc := make(chan struct{})
	c := &calibrator{stopc: stopc, done: make(chan []float64, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(calibEvery)
		defer tick.Stop()
		var us []float64
		for {
			t0 := threadCPU()
			calibKernel()
			us = append(us, float64(threadCPU()-t0)/1e3)
			select {
			case <-stopc:
				c.done <- us
				return
			case <-tick.C:
			}
		}
	}()
	return c
}

// stop ends the sampling, waits for the goroutine to return, and returns
// the timings in microseconds. It may be called more than once.
func (c *calibrator) stop() []float64 {
	if c.stopc != nil {
		close(c.stopc)
		c.stopc = nil
		c.us = <-c.done
	}
	return c.us
}
