// Command perfbench is the repository's benchmark. It generates its
// inputs from a seed with the repository's OCR error model, runs one
// named workload against the real program — a staccatod child process
// over loopback HTTP, or the staccatodb library — checks that every
// answer is right, and prints one JSON result line.
//
//	perfbench --workload serve-zipf|scan-broad|ingest-ocr --seed N
//	          --seconds S --trace 0|1 [--staccatod PATH] [--docs N]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, derived from spans the
// benchmark records around its calls into each layer, and writes the
// spans to --trace-out. A correctness gate that fails ends the run with
// a nonzero exit and no result line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports. Every workload
// reports all of them, each in the workload's own terms (see README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"bytes_per_text_byte", "B/B"},
	{"reopen_s", "s"},
}

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	staccatod string // staccatod binary, for serve-zipf
	workDir   string // scratch directory for stores
	traceOut  string // where a traced run writes its spans
	docs      int    // corpus size; 0 selects the workload's default
	setups    int    // how many times set-up runs for setup_s
	log       io.Writer
}

// outcome is what a workload hands back: its operation counts, the
// end-to-end metrics (untraced) or per-layer metrics (traced), and the
// human-readable report lines printed before the result.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	report            []string
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"serve-zipf": runServe,
	"scan-broad": runScan,
	"ingest-ocr": runIngest,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := benchMain(ctx, os.Stdout, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{log: os.Stderr}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: serve-zipf, scan-broad or ingest-ocr")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&cfg.staccatod, "staccatod", ".bench_build/bin/staccatod", "staccatod binary (serve-zipf)")
	fs.StringVar(&cfg.workDir, "work", ".bench_build/work", "scratch directory for stores")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace/WORKLOAD-seedN.json)")
	fs.IntVar(&cfg.docs, "docs", 0, "corpus size (0 = the workload's default)")
	fs.IntVar(&cfg.setups, "setups", 3, "set-up repetitions behind setup_s")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 || cfg.setups < 1 || cfg.docs < 0 {
		return errors.New("--seconds and --setups must be positive and --docs non-negative")
	}
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.workDir = work

	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%v goarch=%s gomaxprocs=%d nproc=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	out, err := run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if !cfg.trace {
		for _, m := range endToEnd {
			got, ok := out.metrics[m.name]
			if !ok || got.Unit != m.unit {
				return fmt.Errorf("%s: end-to-end metric %s (%s) missing", cfg.workload, m.name, m.unit)
			}
		}
	}
	for _, line := range out.report {
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	line, err := json.Marshal(result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// timeSetup runs setup n times and returns the median duration with the
// last run's product; every earlier product is released with drop.
func timeSetup[T any](n int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}
