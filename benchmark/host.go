package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo is the fingerprint stamped on every output document, so two
// documents can be told apart before their numbers are compared.
type hostInfo struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	OSArch     string            `json:"os_arch"`
	CPUModel   string            `json:"cpu_model"`
	Caches     map[string]string `json:"caches,omitempty"` // "L2 Unified" → "4096K"
	GitCommit  string            `json:"git_commit"`
}

func fingerprint() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   cpuModel(),
		Caches:     cacheSizes(),
		GitCommit:  gitCommit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's cache hierarchy from sysfs.
func cacheSizes() map[string]string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	sort.Strings(dirs)
	out := map[string]string{}
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		if level, size := read("level"), read("size"); level != "" && size != "" {
			out["L"+level+" "+read("type")] = size
		}
	}
	return out
}

// gitCommit resolves HEAD by reading .git directly, walking up from the
// working directory: the benchmark starts no process, and the driver's
// checkout is not a repository at all ("unknown" there).
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			return resolveHead(filepath.Join(dir, ".git"), strings.TrimSpace(string(head)))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

func resolveHead(gitDir, head string) string {
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached: HEAD holds the hash itself
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}
