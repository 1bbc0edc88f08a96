package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// envBlock records the host a result was measured on, so a record can
// show host drift by itself: the calibration kernel's speed moves with the
// host, never with the repository's code.
type envBlock struct {
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Commit       string  `json:"commit"`
	Seed         uint64  `json:"seed"`
	CalibNsPerOp float64 `json:"calib_ns_per_op"`
}

func collectEnv(seed uint64) envBlock {
	return envBlock{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       commitID(),
		Seed:         seed,
		CalibNsPerOp: calibrate(),
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

// commitID names the code under test: the git commit when the checkout is
// a repository, else "tree:" plus a hash of the Go sources, go.mod files
// and embedded TOML, which identifies an exported tree just as well.
func commitID() string {
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
				return strings.TrimSpace(string(b))
			}
			return ref
		}
		return h
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(p); ext == ".go" || ext == ".mod" || ext == ".toml" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// calibSink keeps the calibration loop's result observable.
var calibSink uint64

// calibrate times a fixed integer kernel (a splitmix64 chain feeding a
// small table walk) and returns the median ns per step over five reps.
// The kernel calls nothing in the repository, so its figure tracks the
// host alone.
func calibrate() float64 {
	const steps = 1 << 20
	var table [256]uint64
	reps := make([]float64, 5)
	for r := range reps {
		x := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for i := 0; i < steps; i++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			table[z&255] += z
		}
		reps[r] = float64(time.Since(start).Nanoseconds()) / steps
		calibSink += table[x&255]
	}
	return median(reps)
}

// liveMB returns the live heap the last GC cycle marked, in MB.
func liveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// gcWindow measures GC activity between its creation and End.
type gcWindow struct{ cycles, pauseNs uint64 }

func startGC() gcWindow {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcWindow{uint64(m.NumGC), m.PauseTotalNs}
}

// End returns the GC cycles completed and the total stop-the-world pause
// since the window began.
func (g gcWindow) End() (cycles float64, pauseMs float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(uint64(m.NumGC) - g.cycles), float64(m.PauseTotalNs-g.pauseNs) / 1e6
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
