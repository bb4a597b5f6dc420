package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"
)

// host is the record every run's output is stamped with. Two records are
// comparable only when everything but Commit and CalibrationS matches.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// CalibrationS is the median time of a fixed arithmetic loop: when it
	// moves between runs, the host's speed moved, not the program.
	CalibrationS float64 `json:"calibration_s"`
}

func hostFacts() host {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return host{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Go:           runtime.Version(),
		Commit:       commit,
		CalibrationS: calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrationSink keeps the calibration loop from being optimized away.
var calibrationSink float64

// calibrate times a fixed dependent multiply-add chain over a small table
// (about 20 ms on the reference host) five times and returns the median.
func calibrate() float64 {
	table := make([]float64, 4096)
	for i := range table {
		table[i] = 1 + float64(i%7)*1e-9
	}
	times := make([]float64, 5)
	for r := range times {
		start := time.Now()
		x := 1.0
		for i := 0; i < 20_000_000; i++ {
			x = x*table[i&4095] + 1e-12
		}
		times[r] = time.Since(start).Seconds()
		calibrationSink += x
	}
	return median(times)
}
