package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// resources is what a timed window cost the whole process (server, engine
// and the in-process clients together).
type resources struct {
	cpu       time.Duration // user + system CPU
	allocB    uint64        // runtime.MemStats.TotalAlloc delta
	peakHeapB uint64        // highest sampled HeapInuse
	// retainedB is the live heap after a forced GC at the end of the window
	// minus the same at its start: what the finished work left behind (the
	// server keeps finished jobs, their ledgers and their store records).
	retainedB int64
}

// heapSampleEvery is the HeapInuse sampling period. ReadMemStats stops the
// world briefly; at this rate that costs well under 0.1% of a core.
const heapSampleEvery = 20 * time.Millisecond

type meter struct {
	cpu0   time.Duration
	alloc0 uint64
	live0  uint64
	stopc  chan struct{}
	done   sync.WaitGroup
	peak   uint64 // written by the sampler goroutine until done
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settledLiveHeap collects garbage twice, the second time to free what
// sync.Pool victim caches still held after the first, and returns the live
// heap left.
func settledLiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func startMeter() *meter {
	live := settledLiveHeap()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := &meter{cpu0: cpuTime(), alloc0: ms.TotalAlloc, live0: live, stopc: make(chan struct{}), peak: ms.HeapInuse}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stopc:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				m.peak = max(m.peak, ms.HeapInuse)
			}
		}
	}()
	return m
}

func (m *meter) stop() resources {
	close(m.stopc)
	m.done.Wait()
	cpu := cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpu:       cpu,
		allocB:    ms.TotalAlloc - m.alloc0,
		peakHeapB: max(m.peak, ms.HeapInuse),
		retainedB: int64(settledLiveHeap()) - int64(m.live0),
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered set of named values, printed in insertion order
// in the human-readable summary.
type metrics struct {
	names  []string
	values map[string]metric
	notes  map[string]string
}

func newMetrics() *metrics {
	return &metrics{values: map[string]metric{}, notes: map[string]string{}}
}

func (m *metrics) set(name, unit string, v float64, note string) {
	if _, dup := m.values[name]; !dup {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: v, Unit: unit}
	if note != "" {
		m.notes[name] = note
	}
}
