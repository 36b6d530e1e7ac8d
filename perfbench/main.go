// Command perfbench is the repository's end-to-end benchmark. It launches
// the real heatmapd binary as a child process, drives it over loopback HTTP
// with one of three seeded workloads (explore, ingest, tenants), checks every
// answer against an in-process heatmap built from the same inputs, and
// prints the metrics as one JSON object on the last line of standard output.
//
// With -trace 1 it additionally replays the same generated inputs in-process
// through the library's public layer functions, in the order the server
// calls them, timing each call as a span; the per-layer metrics come from
// that replay. See README.md for the workloads, the metrics and the layer
// map.
//
// perfbench is normally run through run.sh, which builds both binaries from
// the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: explore, ingest or tenants")
		seed     = flag.Int64("seed", 1, "seed of the generated request streams")
		seconds  = flag.Float64("seconds", 15, "length of the timed phase, in seconds")
		trace    = flag.Int("trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
	)
	flag.Parse()
	// The generator shares the machine with the server: never more OS
	// threads running Go code than there are CPUs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want explore, ingest or tenants)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need a positive -seconds and -trace 0 or 1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(buildDir, "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		name:   *workload,
		bin:    filepath.Join(buildDir, "heatmapd"),
		dir:    dir,
		seed:   *seed,
		timed:  time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		e2e:    map[string]metric{},
		named:  map[string]metric{},
		layer:  map[string]metric{},
	}
	err = run(b)
	b.stopAll()
	if err == nil {
		err = os.RemoveAll(dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !b.report() {
		os.Exit(1)
	}
}

// buildDir is where run.sh puts the binaries it builds, relative to the
// repository root the benchmark runs in; runs keep their scratch files and
// traces there too.
const buildDir = ".bench_build"

var workloads = map[string]func(*bench) error{
	"explore": runExplore,
	"ingest":  runIngest,
	"tenants": runTenants,
}

// metric is one reported number with its unit and the number of samples it
// summarizes.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// bench is the state of one benchmark run.
type bench struct {
	name   string
	bin    string
	dir    string
	seed   int64
	timed  time.Duration
	traced bool

	procs []*proc

	attempted, failed int
	mismatches        []string

	e2e   map[string]metric // end-to-end metrics (the contract's -trace 0 set)
	named map[string]metric // the workload's own operation metrics, by their natural names
	layer map[string]metric // per-layer metrics (the -trace 1 set)
	notes []string
}

func (b *bench) setE2E(name, unit string, v float64, n int) {
	b.e2e[name] = metric{Value: v, Unit: unit, N: n}
}

func (b *bench) setNamed(name, unit string, v float64, n int) {
	b.named[name] = metric{Value: v, Unit: unit, N: n}
}

func (b *bench) setLayer(name, unit string, v float64, n int) {
	b.layer[name] = metric{Value: v, Unit: unit, N: n}
}

// mismatch records a failed output check; any mismatch fails the run.
func (b *bench) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.mismatches) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", msg)
	}
	b.mismatches = append(b.mismatches, msg)
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// report prints the human-readable lines and, last, the result object. It
// returns whether every output check passed.
func (b *bench) report() bool {
	fmt.Printf("workload %s seed %d timed %.0fs trace %v\n", b.name, b.seed, b.timed.Seconds(), b.traced)
	for _, n := range b.notes {
		fmt.Println("  " + n)
	}
	printSet := func(kind string, set map[string]metric) {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set[n]
			fmt.Printf("  %-6s %-28s %14.4f %-6s n=%d\n", kind, n, m.Value, m.Unit, m.N)
		}
	}
	printSet("e2e", b.e2e)
	printSet("op", b.named)
	printSet("layer", b.layer)
	fmt.Printf("  attempted %d failed %d mismatches %d\n", b.attempted, b.failed, len(b.mismatches))

	metrics := b.e2e
	if b.traced {
		metrics = b.layer
	}
	if err := checkDeclared(metrics, b.traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(b.mismatches) == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return false
	}
	fmt.Println(string(out))
	return len(b.mismatches) == 0
}

// path returns a file name inside the run's scratch directory.
func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// checkDeclared verifies that the metrics a run reports are exactly the
// ones BENCHMARK.json (in the repository root, the working directory)
// declares for the mode, with the same units.
func checkDeclared(metrics map[string]metric, traced bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	if len(want) != len(metrics) {
		return fmt.Errorf("reporting %d metrics, BENCHMARK.json declares %d", len(metrics), len(want))
	}
	for _, w := range want {
		if m, ok := metrics[w.Name]; !ok || m.Unit != w.Unit {
			return fmt.Errorf("metric %s (%s) declared in BENCHMARK.json is not reported with that unit", w.Name, w.Unit)
		}
	}
	return nil
}
