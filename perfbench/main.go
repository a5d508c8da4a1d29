// Command perfbench is the repository benchmark.  It drives three
// workloads through the packages' public functions and prints, as the last
// line of its output, one JSON object with the run's end-to-end metrics
// (-trace 0) or its per-layer metrics (-trace 1):
//
//	go build -o perfbench . && ./perfbench -workload attack-campaign -seed 1 -seconds 30 -trace 0
//
// README.md describes the workloads, the metrics and the layer each one
// belongs to.  With -spread it instead reads the outputs of several runs
// and prints each metric's median and quartile spread.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// defaultSeed is the seed the pinned outcome digests were taken at.
const defaultSeed = 1

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

// resumeRounds is how many rounds a campaign workload resumes from a
// checkpoint after its timed phase; resume_s is the median.
const resumeRounds = 3

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	// scratch is the directory the service workload keeps its journals in.
	scratch string
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	problems          []string
	endToEnd          []metric
	layers            []metric
	notes             []string
}

// fail records a failed output check that invalidates n attempted
// operations.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) *result{
	"attack-campaign": func(o options) *result { return runCampaignWorkload(o, attackWorkload) },
	"crypto-analysis": func(o options) *result { return runCampaignWorkload(o, cryptoWorkload) },
	"service-resume":  runServiceWorkload,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: attack-campaign, crypto-analysis or service-resume")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the pinned outcome digests hold at the default")
	seconds := fs.Float64("seconds", 10, "how long the timed phase runs whole rounds")
	traceMode := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
	scratch := fs.String("scratch", os.TempDir(), "directory for the service workload's scratch journals")
	spreadMode := fs.Bool("spread", false, "read run outputs named as arguments and print each metric's quartile spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spreadMode {
		return printSpreads(fs.Args(), stdout, stderr)
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceMode == 1, scratch: *scratch}
	res := w(o)
	return printResult(stdout, stderr, *workload, o, res)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult prints the run's details, then the result line.  It returns the
// exit code: 1 when any output check failed.
func printResult(stdout, stderr io.Writer, name string, o options, res *result) int {
	fmt.Fprintf(stdout, "perfbench %s seed %d seconds %g trace %v\n", name, o.seed, o.seconds, o.traced)
	fmt.Fprintf(stdout, "host: %d cpus, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	share := 0.0
	if res.attempted > 0 {
		share = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(stdout, "failed_share %.6f (%d of %d attempted)\n", share, res.failed, res.attempted)
	for _, m := range res.endToEnd {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if o.traced {
		for _, m := range res.layers {
			fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.problems) == 0 && res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	ms := res.endToEnd
	if o.traced {
		ms = res.layers
	}
	for _, m := range ms {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// peakRSSMiB is the peak resident set of this process.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printSpreads reads the result line of each named run output and prints,
// per metric, the median and the quartile spread the runs are compared by.
func printSpreads(paths []string, stdout, stderr io.Writer) int {
	values := map[string][]float64{}
	for _, p := range paths {
		line, err := lastLine(p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		var res struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if err := json.Unmarshal(line, &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 1
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	var names []string
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := values[n]
		if len(v) < 2 {
			fmt.Fprintf(stdout, "%-34s n=%d median %.6g\n", n, len(v), median(v))
			continue
		}
		q1, q3 := quartiles(v)
		fmt.Fprintf(stdout, "%-34s n=%d median %.6g q1 %.6g q3 %.6g spread %.4f\n", n, len(v), median(v), q1, q3, spread(v))
	}
	return 0
}

func lastLine(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var last []byte
	for _, l := range bytes.Split(data, []byte{'\n'}) {
		if len(l) > 0 {
			last = l
		}
	}
	if last == nil {
		return nil, errors.New(path + ": empty")
	}
	return last, nil
}
