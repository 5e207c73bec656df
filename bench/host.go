package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostStamp names the machine and build a set of numbers came from.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func stampHost() hostStamp {
	h := hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// calib is one reading of the host's speed: a loop that lives in the L1
// cache and a dependent random walk over memory far larger than any
// cache. They move with every host-time metric and with nothing
// simulated, so a workload whose before and after readings disagree was
// measured on a machine that changed speed under it.
type calib struct {
	CPUMS float64
	MemMS float64
}

var calibSink uint64

func calibrate(scale int) calib {
	return calib{CPUMS: ms(calibCPU(scale)), MemMS: ms(calibMem(scale))}
}

func calibCPU(scale int) time.Duration {
	var buf [512]uint64
	x := uint64(0x9E3779B97F4A7C15)
	n := 40_000_000 / scale
	start := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&511] += x
	}
	d := time.Since(start)
	calibSink += buf[0] + x
	return d
}

// memBuf is the calibration walk's buffer, mapped outside the Go heap
// once per process: both readings of a workload walk the same physical
// pages, and the buffer never counts towards a workload's live heap.
var memBuf []uint64

func calibBuffer(bits int) []uint64 {
	if memBuf != nil {
		return memBuf
	}
	raw, err := syscall.Mmap(-1, 0, 8<<bits, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		raw = make([]byte, 8<<bits)
	}
	memBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), 1<<bits)
	for i := range memBuf {
		memBuf[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return memBuf
}

// calibMem walks 256 MB (divided by scale) in an order the prefetcher
// cannot guess: each next index is the top bits of the word just read.
// It reports the fastest of six walks, which sheds interference that
// lasts less than a walk.
func calibMem(scale int) time.Duration {
	bits := 25 // 2^25 words of 8 bytes
	for s := scale; s > 1; s >>= 1 {
		bits--
	}
	arr := calibBuffer(bits)
	steps := 350_000 / scale
	shift := uint(64 - bits)
	best := time.Duration(math.MaxInt64)
	for walk := uint64(1); walk <= 6; walk++ {
		idx := walk
		start := time.Now()
		for i := 0; i < steps; i++ {
			idx = (arr[idx] + uint64(i)*0xBF58476D1CE4E5B9) >> shift
		}
		if d := time.Since(start); d < best {
			best = d
		}
		calibSink += idx
	}
	return best
}

// drift is the larger relative change of the two readings.
func (c calib) drift(after calib) float64 {
	rel := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return math.Abs(b/a - 1)
	}
	return math.Max(rel(c.CPUMS, after.CPUMS), rel(c.MemMS, after.MemMS))
}
