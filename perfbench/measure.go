package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user plus system CPU time (getrusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// rssMB is the process's current resident set (VmRSS) in MiB.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// pollPeakRSS samples VmRSS every 10 ms until the returned function is
// called, which stops the sampler and returns the highest value seen.
// Unlike VmHWM it leaves out everything before the call, such as set-up.
func pollPeakRSS() func() float64 {
	stop, peak := make(chan struct{}), make(chan float64)
	go func() {
		high := rssMB()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				high = max(high, rssMB())
			case <-stop:
				peak <- max(high, rssMB())
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-peak
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with that percentile. Below eleven samples no such
// percentile exists and the minimum is returned at percentile 0.
func tail(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return s[0], 0
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// quartiles matches Python's statistics.quantiles(xs, n=4) in its default
// "exclusive" method, which is how the spread of a metric across runs is
// judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// mark is one trace boundary: the monotonic instant the previous span
// ended, process counters read at the boundary, and the instant the next
// span started. Reading the counters falls between the two instants, so
// the tracer's own cost is left out of every span.
type mark struct {
	end, start time.Time
	alloc      uint64 // MemStats.TotalAlloc
	heapInuse  uint64
	cpu        float64
}

func takeMark() mark {
	end := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		end:       end,
		alloc:     ms.TotalAlloc,
		heapInuse: ms.HeapInuse,
		cpu:       cpuSeconds(),
		start:     time.Now(),
	}
}

// span is the interval between two marks.
type span struct {
	wall, cpu, allocMB float64
}

func between(a, b mark) span {
	return span{
		wall:    b.end.Sub(a.start).Seconds(),
		cpu:     b.cpu - a.cpu,
		allocMB: float64(b.alloc-a.alloc) / (1 << 20),
	}
}

func (s *span) add(o span) {
	s.wall += o.wall
	s.cpu += o.cpu
	s.allocMB += o.allocMB
}

// parallelism is CPU seconds per wall second of the span, or 0 for an
// empty span.
func (s span) parallelism() float64 {
	if s.wall <= 0 {
		return 0
	}
	return s.cpu / s.wall
}
