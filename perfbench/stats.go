package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

var inf = math.Inf(1)

// median of xs; 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-th quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memory is this process's resident memory, MiB.
type memory struct {
	peakRSS float64 // VmHWM: the peak resident set
	// peakAnon is the peak resident set less the file-backed and
	// shared pages mapped now: the binary's code and data pages, whose
	// count depends on what the page cache holds, not on the program's
	// work. File pages are mapped as code is first run, which the
	// warm-up pass does, so those mapped at the peak are those mapped
	// now.
	peakAnon float64
}

// resetPeak sets this process's peak resident set (VmHWM) to its
// current resident set, so that the next readMemory reports the peak
// since this call.
func resetPeak() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func readMemory() (memory, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return memory{}, err
	}
	defer f.Close()
	kb := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || (key != "VmHWM" && key != "RssFile" && key != "RssShmem") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return memory{}, fmt.Errorf("%s: %w", key, err)
		}
		kb[key] = v
	}
	if err := sc.Err(); err != nil {
		return memory{}, err
	}
	if len(kb) != 3 {
		return memory{}, fmt.Errorf("/proc/self/status: want VmHWM, RssFile and RssShmem, found %v", kb)
	}
	return memory{peakRSS: kb["VmHWM"] / 1024, peakAnon: (kb["VmHWM"] - kb["RssFile"] - kb["RssShmem"]) / 1024}, nil
}
