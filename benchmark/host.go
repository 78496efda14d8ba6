package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is the host-side state read around one iteration.
type hostSample struct {
	at      time.Time
	cpu     time.Duration // user+sys of the whole process
	alloc   uint64        // runtime.MemStats.TotalAlloc
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func sampleHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// hostDelta is what one iteration cost the host.
type hostDelta struct {
	wallS, cpuS, allocMB    float64
	mallocs, gcs, gcPauseMs float64
}

func (a hostSample) until(b hostSample) hostDelta {
	return hostDelta{
		wallS:     b.at.Sub(a.at).Seconds(),
		cpuS:      (b.cpu - a.cpu).Seconds(),
		allocMB:   float64(b.alloc-a.alloc) / (1 << 20),
		mallocs:   float64(b.mallocs - a.mallocs),
		gcs:       float64(b.numGC - a.numGC),
		gcPauseMs: float64(b.pauseNs-a.pauseNs) / 1e6,
	}
}

// peakRSSMB is the process's resident-set high-water mark: VmHWM of
// /proc/self/status, 0 where there is none.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// machineInfo names the box a result file came from.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
}

func thisMachine() machineInfo {
	info := machineInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				info.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return info
}
