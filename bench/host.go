package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint identifies the host and build a set of numbers was taken
// on; every output carries it (ROADMAP item 1).
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(seed int64) fingerprint {
	return fingerprint{
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(".."),
		Seed:       seed,
	}
}

// procField returns the value of the first "key : value" line of a
// /proc file, "unknown" when absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA reads the checked-out revision from root/.git without running
// git; a checkout that is not a repository reports "unknown".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	sha, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current resident size, so peakRSSMB covers what follows. Where the
// kernel refuses, the mark keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see above
}

// peakRSSMB is this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
