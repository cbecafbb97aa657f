package main

// The environment fingerprint recorded with every result, and the
// calibration loop interleaved with the runs.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fingerprint identifies the machine, toolchain and code a result was
// measured on.
type Fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// Source is a SHA-256 over the checkout's Go sources and go.mod
	// files, which identifies the code when no git commit is at hand.
	Source   string `json:"source_sha256"`
	Seed     uint64 `json:"seed"`
	Workload string `json:"workload,omitempty"`
	Trace    int    `json:"trace"`
}

func fingerprint(seed uint64) Fingerprint {
	return Fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		Source:     sourceDigest("."),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit is the checkout's HEAD, or "" when the checkout root is
// not a git work tree.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go and go.mod file under root in path
// order, skipping build output and hidden directories.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			raw, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			h.Write([]byte(path + "\x00"))
			h.Write(raw)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// calSink keeps the calibration loop's result alive.
var calSink atomic.Uint64

// calibrate times a fixed loop of integer arithmetic and memory reads
// and writes, run by one goroutine per CPU, in ns. Results record it
// between runs, so a set of runs taken while the host was slower than
// usual shows as slower calibration loops and can be measured again.
func calibrate() int64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]uint64, 1<<18) // 2 MiB
			x := uint64(g + 1)
			for i := 0; i < 16; i++ {
				for j := range buf {
					x = x*6364136223846793005 + 1442695040888963407
					buf[j] += x
					x ^= buf[(j*7919)&(len(buf)-1)]
				}
			}
			calSink.Add(x)
		}()
	}
	wg.Wait()
	return time.Since(t0).Nanoseconds()
}
