// Command bench is the repository's one benchmark: four macro workloads
// over the whole stack, five end-to-end metrics, and a traced run that
// attributes time to layers. See README.md in this directory.
//
// One workload, as BENCHMARK.json's command runs it:
//
//	go run -C bench . --workload browse --seed 1 --seconds 20 --trace 0
//
// Every workload, each in a fresh child process, with the per-layer run
// and a repeatability check:
//
//	go run -C bench . -seed 1 [-traced] [-check-repeat]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "dataset and probe seed")
	seconds := flag.Float64("seconds", 20, "timed seconds per workload")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics (with -workload)")
	traced := flag.Bool("traced", false, "also make the traced per-layer run of every workload")
	checkRepeat := flag.Bool("check-repeat", false, "run two full sets and fail when an end-to-end metric differs by more than its bound")
	updateGolden := flag.Bool("update-golden", false, "with -seed 1: rewrite golden.json from this run's verification digests")
	outDir := flag.String("out", "out", "directory for trace files and the ingest data directory")
	flag.Parse()

	if *workload != "" {
		spec := findWorkload(*workload)
		if spec == nil {
			fatalf("unknown workload %q", *workload)
		}
		res, info, err := runWorkload(spec, *seed, *seconds, *trace == 1, false, *outDir)
		if err != nil {
			fatalf("%v", err)
		}
		printJSON(info)
		printJSON(res)
		return
	}
	if *updateGolden {
		if err := writeGolden(*seconds, *outDir); err != nil {
			fatalf("%v", err)
		}
		return
	}
	ok, err := runAll(*seed, *seconds, *traced, *checkRepeat, *outDir)
	if err != nil {
		fatalf("%v", err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

// runChild runs one workload in a fresh process of this same binary, so
// peak RSS and cache state are the workload's own, and parses the two
// lines it prints.
func runChild(workload string, seed int64, seconds float64, trace int, outDir string) (result, runInfo, error) {
	var res result
	var info runInfo
	exe, err := os.Executable()
	if err != nil {
		return res, info, err
	}
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace), "--out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, info, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return res, info, fmt.Errorf("%s: child printed %d lines, want 2", workload, len(lines))
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		return res, info, fmt.Errorf("%s: run info: %w", workload, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, info, fmt.Errorf("%s: result: %w", workload, err)
	}
	return res, info, nil
}

// runSet runs every workload once and reports whether all were correct
// with no failed operation.
func runSet(seed int64, seconds float64, trace int, outDir string) (map[string]result, bool, error) {
	set := make(map[string]result)
	ok := true
	for _, spec := range workloads {
		res, info, err := runChild(spec.name, seed, seconds, trace, outDir)
		if err != nil {
			return nil, false, err
		}
		printJSON(struct {
			Info   runInfo `json:"info"`
			Trace  int     `json:"trace"`
			Result result  `json:"result"`
		}{info, trace, res})
		if !res.Correct || res.Failed > 0 {
			ok = false
		}
		set[spec.name] = res
	}
	return set, ok, nil
}

// runAll is the no -workload mode: one set of untraced runs, optionally
// the traced set, optionally a second untraced set compared with the
// first.
func runAll(seed int64, seconds float64, traced, checkRepeat bool, outDir string) (bool, error) {
	first, ok, err := runSet(seed, seconds, 0, outDir)
	if err != nil {
		return false, err
	}
	if traced {
		_, tok, err := runSet(seed, seconds, 1, outDir)
		if err != nil {
			return false, err
		}
		ok = ok && tok
	}
	if !checkRepeat {
		return ok, nil
	}
	second, sok, err := runSet(seed, seconds, 0, outDir)
	if err != nil {
		return false, err
	}
	ok = ok && sok
	bf, err := readBenchmarkFile()
	if err != nil {
		return false, err
	}
	for _, spec := range workloads {
		for _, m := range bf.EndToEnd {
			a := first[spec.name].Metrics[m.Name].Value
			b := second[spec.name].Metrics[m.Name].Value
			within := math.Abs(b/a-1) <= m.Bound
			fmt.Printf("repeat %-12s %-12s first %12.4f second %12.4f ratio %.4f within_bound %v\n",
				spec.name, m.Name, a, b, b/a, within)
			ok = ok && within
		}
	}
	return ok, nil
}

// writeGolden reruns the verification phase of every workload at the
// golden seed and rewrites golden.json.
func writeGolden(seconds float64, outDir string) error {
	golden := make(goldenFile)
	for i := range workloads {
		_, info, err := runWorkload(&workloads[i], goldenSeed, seconds, false, true, outDir)
		if err != nil {
			return err
		}
		if info.Error != "" {
			return fmt.Errorf("%s: %s", workloads[i].name, info.Error)
		}
		golden[workloads[i].name] = info.Verified
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", append(b, '\n'), 0o644)
}
