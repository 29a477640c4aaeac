package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environmentStamp describes where a result was measured. Two results
// are comparable only when every field but commit and source_sha256
// matches (README.md, "Comparing results").
func environmentStamp(workload string, cfg runConfig) map[string]string {
	return map[string]string{
		"workload":      workload,
		"seed":          strconv.FormatInt(cfg.seed, 10),
		"seconds":       strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"trace":         strconv.FormatBool(cfg.trace),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"cpu":           cpuModel(),
		"kernel":        readTrim("/proc/sys/kernel/osrelease"),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree (source_sha256 identifies the code either way).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root in
// path order, skipping build output and hidden directories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(f)+"\x00")
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
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

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the kernel's cumulative steal and total CPU ticks:
// time the hypervisor ran something else while this VM wanted a CPU.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user … steal; guest time is already in user
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of CPU time stolen since the reading (s0, t0).
func stealPct(s0, t0 int64) float64 {
	s1, t1 := hostSteal()
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0) * 100
}
