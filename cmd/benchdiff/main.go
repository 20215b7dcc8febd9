// Command benchdiff compares two BENCH json documents written by
// BenchmarkNativeSolve (BENCH_JSON=... go test -bench=NativeSolve) and
// prints per-case throughput deltas, so a kernel or scheduling change
// can be judged case by case instead of by eyeballing two walls of
// `go test -bench` output.
//
// Rows are joined on (problem, precision, workers, nrhs); rows
// present in only one document are listed but not compared. Throughput
// is reported in GFLOPS (the documents store MFLOPS) with the relative
// change, and the exit status is always 0 — a perf regression is a
// judgement call, not a build failure.
//
// With -check FILE it validates a single document instead: exit status
// 1 if the document has no rows or any row carries a non-finite or
// non-positive MFLOPS or a non-positive ns_per_op. CI runs this after a
// 1-iteration benchmark pass so a silently broken benchmark (NaN
// throughput, zero timings) fails the build even though real perf
// numbers from shared runners would be too noisy to gate on.
//
// Usage:
//
//	benchdiff results/nativesolve.old.json results/nativesolve.json
//	benchdiff -check results/nativesolve.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
)

// row mirrors the fields of bench_test.go's nativeSolveRow that the
// diff needs; unknown fields in the document are ignored.
type row struct {
	Problem   string  `json:"problem"`
	Precision string  `json:"precision"`
	Workers   int     `json:"workers"`
	NRHS      int     `json:"nrhs"`
	NsPerOp   int64   `json:"ns_per_op"`
	MFLOPS    float64 `json:"mflops"`
}

type doc struct {
	Bench string `json:"bench"`
	Rows  []row  `json:"rows"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	check := flag.String("check", "", "validate this BENCH json document (non-empty, finite positive throughput) and exit")
	flag.Parse()

	if *check != "" {
		if flag.NArg() != 0 {
			log.Fatal("-check takes no positional arguments")
		}
		if err := checkDoc(*check); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json  |  benchdiff -check FILE.json")
		os.Exit(2)
	}
	oldDoc, err := load(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	newDoc, err := load(flag.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	diff(oldDoc, newDoc)
}

func load(path string) (*doc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// checkDoc is the CI smoke gate: it accepts any document whose every
// row has a finite positive throughput and a positive per-op time.
func checkDoc(path string) error {
	d, err := load(path)
	if err != nil {
		return err
	}
	if len(d.Rows) == 0 {
		return fmt.Errorf("%s: no benchmark rows", path)
	}
	for _, r := range d.Rows {
		name := key(r)
		if math.IsNaN(r.MFLOPS) || math.IsInf(r.MFLOPS, 0) || r.MFLOPS <= 0 {
			return fmt.Errorf("%s: %s: bad throughput %v MFLOPS", path, name, r.MFLOPS)
		}
		if r.NsPerOp <= 0 {
			return fmt.Errorf("%s: %s: bad ns_per_op %d", path, name, r.NsPerOp)
		}
	}
	fmt.Printf("benchdiff: %s ok (%d rows)\n", path, len(d.Rows))
	return nil
}

// key is the join key: one benchmark case. Precision is part of the
// key (documents predating the precision axis join as the empty
// string, which diffs cleanly against float64 rows as new cases).
func key(r row) string {
	return fmt.Sprintf("%s/precision=%s/workers=%d/nrhs=%d",
		r.Problem, r.Precision, r.Workers, r.NRHS)
}

func diff(oldDoc, newDoc *doc) {
	oldBy := map[string]row{}
	for _, r := range oldDoc.Rows {
		oldBy[key(r)] = r
	}
	var keys []string
	newBy := map[string]row{}
	for _, r := range newDoc.Rows {
		k := key(r)
		newBy[k] = r
		keys = append(keys, k)
	}
	sort.Strings(keys)

	fmt.Printf("%-58s %12s %12s %8s\n", "case", "old GFLOPS", "new GFLOPS", "delta")
	var onlyOld, onlyNew []string
	for _, k := range keys {
		nr := newBy[k]
		or, ok := oldBy[k]
		if !ok {
			onlyNew = append(onlyNew, k)
			continue
		}
		og, ng := or.MFLOPS/1000, nr.MFLOPS/1000
		delta := math.NaN()
		if og > 0 {
			delta = (ng - og) / og * 100
		}
		fmt.Printf("%-58s %12.3f %12.3f %+7.1f%%\n", k, og, ng, delta)
	}
	for k := range oldBy {
		if _, ok := newBy[k]; !ok {
			onlyOld = append(onlyOld, k)
		}
	}
	sort.Strings(onlyOld)
	for _, k := range onlyOld {
		fmt.Printf("%-58s %12s\n", k, "(removed)")
	}
	for _, k := range onlyNew {
		fmt.Printf("%-58s %25s\n", k, "(new case, no baseline)")
	}
}
