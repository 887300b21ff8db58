package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared: other tenants' load slows
// the same work by a quarter or more for minutes at a time, in CPU time
// as well as in wall time. So the benchmark keeps measuring how fast
// the machine is running, with a fixed piece of work of its own, and
// scales the program's CPU times to a reference speed.
//
// The calibration work, on each of width threads: a small
// discrete-event loop, the shape of the program's own hot paths. Each
// step takes the earliest of calibEvents pending events off a binary
// heap, runs a draw from a xorshift generator through libm (as the
// Monte Carlo kernels do), counts it into a 256 KiB table and puts the
// event back later in time (as the packet simulator does). It
// allocates nothing, so the program's heap cannot change its cost
// through the garbage collector; nothing else in the program can
// either.
const (
	calibSteps  = 1 << 18
	calibEvents = 1 << 10
	calibTable  = 1 << 15 // uint64 counters

	// calibRef is the calibration's CPU time, both threads together, at
	// the usual speed of the 2-vCPU Xeon VM the baseline was taken on. A
	// time scaled by calibRef/calibration reads as it would at that
	// speed.
	calibRef = 0.065 // s

	// calibEvery is how often a series of measurements is calibrated:
	// before a measurement when this long has gone by since the last
	// calibration, and once after the last measurement.
	calibEvery = 500 * time.Millisecond
)

// calibState is one thread's working set, kept from call to call.
type calibState struct {
	table  [calibTable]uint64
	events [calibEvents]float64
	queue  [calibEvents]*float64
}

// calibMu serialises calibrations: they share calibStates, and two at
// once would slow each other down.
var (
	calibMu     sync.Mutex
	calibStates [width]calibState
	calibSink   float64 // the work's results, so that none is optimised away
)

// calibrate runs the calibration work once and returns the CPU time
// its threads spent on it: their own time only, not the garbage
// collector's or any other thread's.
func calibrate() float64 {
	calibMu.Lock()
	defer calibMu.Unlock()
	var wg sync.WaitGroup
	cpu := make([]float64, width)
	sink := make([]float64, width)
	for g := 0; g < width; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			sink[g] = calibStates[g].work(uint64(g) + 1)
			cpu[g] = (threadCPU() - t0).Seconds()
		}(g)
	}
	wg.Wait()
	var total float64
	for g := range cpu {
		total += cpu[g]
		calibSink += sink[g]
	}
	return total
}

// rusageThread is RUSAGE_THREAD: the calling thread's own usage.
const rusageThread = 1

func threadCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru) // cannot fail with a valid who and buffer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (st *calibState) work(seed uint64) float64 {
	x := seed * 0x9E3779B97F4A7C15
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	q := st.queue[:]
	for i := range st.events {
		st.events[i] = float64(i) / calibEvents
		q[i] = &st.events[i]
	}
	var sum float64
	for i := 0; i < calibSteps; i++ {
		u := next()
		sum += math.Exp(-u) * math.Log1p(u)
		st.table[x%calibTable]++
		// Put the earliest event back later and sift it down.
		*q[0] += u
		for k := 0; ; {
			c := 2*k + 1
			if c >= len(q) {
				break
			}
			if c+1 < len(q) && *q[c+1] < *q[c] {
				c++
			}
			if *q[k] <= *q[c] {
				break
			}
			q[k], q[c] = q[c], q[k]
			k = c
		}
	}
	return sum + float64(st.table[x%calibTable]) + *q[0]
}

// calibrated is a series of measurements taken between calibrations.
type calibrated struct {
	cals   []float64 // calibration CPU times, s, in the order taken
	values []float64 // measurements, s
	after  []int     // for each value, how many calibrations preceded it
	last   time.Time // when the last calibration ended
}

func (c *calibrated) calibrate() {
	c.cals = append(c.cals, calibrate())
	c.last = time.Now()
}

// due calibrates if there has been no calibration yet or calibEvery
// has gone by since the last one.
func (c *calibrated) due() {
	if len(c.cals) == 0 || time.Since(c.last) >= calibEvery {
		c.calibrate()
	}
}

func (c *calibrated) add(v float64) {
	c.values = append(c.values, v)
	c.after = append(c.after, len(c.cals))
}

// scaled returns each value scaled to the reference speed by the mean
// of the calibrations taken just before and just after it.
func (c *calibrated) scaled() []float64 {
	out := make([]float64, len(c.values))
	for i, v := range c.values {
		k := c.after[i]
		speed := c.cals[max(k-1, 0)]
		if k < len(c.cals) && k > 0 {
			speed = (speed + c.cals[k]) / 2
		}
		out[i] = v * calibRef / speed
	}
	return out
}
