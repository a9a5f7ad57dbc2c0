package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe measures how fast the host is running this process while a
// campaign runs. The host shares its cores, caches and memory with other
// tenants, and the same simulation runs tens of percent slower for
// minutes at a time. A goroutine locked to its own thread wakes every
// probeEvery and times a fixed stretch of a miniature discrete-event
// loop (desLoop) on its thread's CPU clock, so time spent waiting for a
// core is not counted. The loop has the simulator's shape but none of
// its code, so it slows with the host and not with the program.
// A pure memory walk, a copy, allocation and SHA-256 were tried too; of
// these only the event loop moved with the simulator's CPU time.
type hostProbe struct {
	des desLoop

	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	got  []float64 //coolpim:guard mu
	used float64   //coolpim:guard mu (Σ got: the probe's own CPU seconds)
}

// probeEvery keeps the probe near 2% of one core.
const probeEvery = 400 * time.Millisecond

// probeEvents is the length of one sample, about 6 ms.
const probeEvents = 20_000

func newHostProbe() *hostProbe { return &hostProbe{des: newDESLoop()} }

// threadCPU reads the calling thread's CPU clock in seconds.
func threadCPU() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// sample runs the fixed work once and returns its thread CPU seconds.
func (h *hostProbe) sample() float64 {
	t0 := threadCPU()
	h.des.run(probeEvents)
	return threadCPU() - t0
}

// start begins sampling in the background.
func (h *hostProbe) start() {
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	go func() {
		defer close(h.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				s := h.sample()
				h.mu.Lock()
				h.got = append(h.got, s)
				h.used += s
				h.mu.Unlock()
			}
		}
	}()
}

// finish stops sampling, waits for the sampler to exit, and returns
// every sample taken since start (at least one: a run shorter than
// probeEvery takes one now).
func (h *hostProbe) finish() []float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.got
	h.got = nil
	if len(out) == 0 {
		out = append(out, h.sample())
	}
	return out
}

// cpuUsed returns the CPU seconds the probe has spent so far (0 for a
// nil probe).
func (h *hostProbe) cpuUsed() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.used
}

// processCPU returns the user plus system CPU seconds of this process.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// desLoop is a miniature discrete-event loop: a binary heap of 4096
// pending events, a random read-modify-write into 2 MB of state per
// event, and a map insert or delete every eighth event.
type desLoop struct {
	heap  []desEvent
	state []uint64
	m     map[int32]int32
	x     uint64 // xorshift state
}

type desEvent struct {
	at uint64
	id int32
}

func newDESLoop() desLoop {
	d := desLoop{state: make([]uint64, 1<<18), m: make(map[int32]int32, 1<<14), x: 1}
	for i := 0; i < 4096; i++ {
		d.push(desEvent{at: uint64(i), id: int32(i)})
	}
	return d
}

func (d *desLoop) run(n int) {
	for i := 0; i < n; i++ {
		ev := d.pop()
		d.x ^= d.x << 13
		d.x ^= d.x >> 7
		d.x ^= d.x << 17
		d.state[int(d.x>>40)&(len(d.state)-1)] += ev.at
		if i&7 == 0 {
			k := int32(d.x>>20) & (1<<14 - 1)
			if _, ok := d.m[k]; ok {
				delete(d.m, k)
			} else {
				d.m[k] = ev.id
			}
		}
		d.push(desEvent{at: ev.at + 1 + d.x&1023, id: ev.id})
	}
}

func (d *desLoop) push(e desEvent) {
	d.heap = append(d.heap, e)
	i := len(d.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if d.heap[p].at <= d.heap[i].at {
			break
		}
		d.heap[p], d.heap[i] = d.heap[i], d.heap[p]
		i = p
	}
}

func (d *desLoop) pop() desEvent {
	top := d.heap[0]
	last := len(d.heap) - 1
	d.heap[0] = d.heap[last]
	d.heap = d.heap[:last]
	for i := 0; ; {
		l, r, min := 2*i+1, 2*i+2, i
		if l < last && d.heap[l].at < d.heap[min].at {
			min = l
		}
		if r < last && d.heap[r].at < d.heap[min].at {
			min = r
		}
		if min == i {
			return top
		}
		d.heap[i], d.heap[min] = d.heap[min], d.heap[i]
		i = min
	}
}
