package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// startProcs is GOMAXPROCS as the process started, before the phases set it.
var startProcs = runtime.GOMAXPROCS(0)

// runEnv records where and on what a result was measured. It is printed as
// the line before the result.
type runEnv struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPU        string   `json:"cpu_model"`
	GOGC       string   `json:"gogc"`
	Commit     string   `json:"commit"`
	Source     string   `json:"source_sha256"`
	P2Valid    bool     `json:"p2_valid"`
	HostSteal  float64  `json:"host_steal_share"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailRatio  float64  `json:"fail_ratio"`
	Notes      []string `json:"notes,omitempty"`
}

func newRunEnv(w workload, seed int64, trace bool) runEnv {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	e := runEnv{
		Workload:   w.name,
		Seed:       seed,
		Trace:      trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: startProcs,
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GOGC:       gogc,
		Commit:     commit,
		Source:     sourceDigest("."),
		P2Valid:    runtime.NumCPU() >= 2,
	}
	if !e.P2Valid {
		e.Notes = append(e.Notes, "fewer than 2 CPUs available: the P=2 metrics are invalid")
	}
	return e
}

// stealSeconds is the CPU time the hypervisor took from this machine's
// CPUs, summed over them: the steal column of /proc/stat, in USER_HZ
// (100 per second) ticks. It is 0 where the kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
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

// sourceDigest hashes the Go sources and module files under root, skipping
// dot-directories (the build cache among them). It names the code measured
// where no version-control commit is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
