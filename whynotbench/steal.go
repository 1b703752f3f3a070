package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The measuring host shares its CPUs with other tenants. The time the
// hypervisor takes from this machine's vCPUs ("steal" in /proc/stat) slows
// every wall-clock figure by a factor the program has no part in, and it
// varies from run to run. The benchmark samples it over each slice of the
// window (and over the mutation probe) and scales its wall-clock figures by
// the share of wanted CPU time the host actually gave: a latency L measured
// while a share s was stolen counts as L·(1−s), a rate R as R/(1−s). The
// unscaled figures and the shares are in the report. Where /proc/stat cannot
// be read the share is 0 and nothing is scaled.

// hostSample is one reading of the aggregate CPU tick counters.
type hostSample struct {
	steal  uint64 // ticks the host ran something else while a vCPU wanted to run
	wanted uint64 // busy plus stolen ticks (idle and iowait excluded)
	ok     bool
}

func readHost() hostSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostSample{}
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return hostSample{}
		}
	}
	return hostSample{steal: v[7], wanted: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], ok: true}
}

// stealShare is the share of wanted CPU time stolen between two samples.
func stealShare(a, b hostSample) float64 {
	if !a.ok || !b.ok || b.wanted <= a.wanted || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.wanted-a.wanted)
}

// sampleSteal returns the steal share of each of n slices of width that
// start at from. It returns when the last slice ends.
func sampleSteal(from time.Time, n int, width time.Duration) []float64 {
	time.Sleep(time.Until(from))
	prev := readHost()
	out := make([]float64, 0, n)
	for k := 1; k <= n; k++ {
		time.Sleep(time.Until(from.Add(time.Duration(k) * width)))
		cur := readHost()
		out = append(out, stealShare(prev, cur))
		prev = cur
	}
	return out
}
