// Command perfbench is gbkmvd's end-to-end benchmark. It drives a gbkmvd
// daemon built from the tree over loopback HTTP with one of three
// closed-loop traffic mixes, checks every answer, crashes and restarts the
// daemon to check durability, and prints every end-to-end metric by name
// and unit. With -trace 1 it instead prints the per-layer breakdown: counts
// scraped from the daemon's /metrics, and self times from an in-process
// replay of the same requests with spans around each layer's public
// function. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload search-large --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed generates the same requests")
		seconds = flag.Int("seconds", 10, "measuring time of the run")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		daemon  = flag.String("daemon", "", "gbkmvd binary built from the tree")
		work    = flag.String("work", "", "working directory for data and logs (removed afterwards)")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *daemon == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --daemon <gbkmvd> --work <dir>")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-17s %s\n", w.name, w.why)
		}
		return 2
	}
	cfg := config{
		wl: *wl, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		daemon: *daemon, work: filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid())),
		clients: runtime.NumCPU(),
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)
	defer live.killAll()

	// A signal must not leave a daemon or the data directory behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		live.killAll()
		os.RemoveAll(cfg.work)
		os.Exit(1)
	}()

	rep, err := execute(cfg)
	if err != nil {
		logf("%s: %v", wl.name, err)
		return 1
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		return 1
	}
	return 0
}

// report is a run's outcome.
type report struct {
	workload  string
	env       []envLine
	metrics   []metric // the result's metrics
	info      []metric // printed for the record, not part of the result
	tables    []string // human-readable sections printed before the result
	attempted int
	failed    int
	problems  []error
}

type envLine struct{ key, value string }

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *report) print(f *os.File) {
	fmt.Fprintf(f, "workload %s\n", r.workload)
	for _, e := range r.env {
		fmt.Fprintf(f, "env %-16s %s\n", e.key, e.value)
	}
	for _, t := range r.tables {
		fmt.Fprint(f, t)
	}
	line := func(kind string, m metric) {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(f, "%-6s %-36s %14.6g %s%s\n", kind, m.name, m.value, m.unit, n)
	}
	for _, m := range r.info {
		line("info", m)
	}
	for _, m := range r.metrics {
		line("metric", m)
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "error_frac %.6f (%d failed of %d attempted)\n", errFrac, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(f, "FAILED CHECK: %v\n", p)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]val)}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // already a failed check; JSON has no NaN
		}
		out.Metrics[m.name] = val{v, m.unit}
	}
	b, _ := json.Marshal(out) // only plain numbers and strings
	fmt.Fprintf(f, "%s\n", b)
}
