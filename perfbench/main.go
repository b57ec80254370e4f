// Command perfbench is the repository's end-to-end benchmark: closed-loop
// Sun RPC echo calls over loopback sockets, through the rpcgen -compiled
// stubs, client.CallTyped and server.RegisterTyped. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it reports the
// per-layer ledger from a separate traced run. See README.md.
//
// Usage:
//
//	perfbench --workload NAME|all --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Each workload's report ends with one JSON line with the keys correct,
// attempted, failed and metrics; for one workload it is the last line of
// standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"specrpc/perfbench/echorpc"
)

// setupWarm set-ups run untimed before the timed ones: the first few in a
// process run slower while the runtime and the kernel warm up.
const setupWarm = 8

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string        // traced runs: write spans here when set
	warm     time.Duration // warm-up before each measured rig
	setups   int           // set-ups timed for setup_s
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+workloadNames()+", or all to run each in turn")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window(s) in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	flag.StringVar(&o.spans, "spans", "", "with --trace 1 and one workload, write every traced call's spans to this file")
	flag.Parse()
	o.trace = trace == 1
	o.warm = time.Second
	o.setups = 128
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if trace != 0 && trace != 1 || o.seconds <= 0 || flag.NArg() != 0 || len(names) > 1 && o.spans != "" {
		flag.Usage()
		os.Exit(2)
	}
	correct := true
	for _, name := range names {
		o.workload = name
		res, err := run(o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run executes one benchmark run and prints its report to out, except
// for the final JSON line, which the caller prints.
func run(o options, out io.Writer) (result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s %s/%s, loopback 127.0.0.1 only, closed loop: %d socket(s) x %d synchronous caller(s), %d int32 each way\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, w.conns, w.depth, w.n)
	pools := argPools(w, o.seed)
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return runTraced(o, w, pools, dur, out)
	}
	return runEndToEnd(o, w, pools, dur, out)
}

// runEndToEnd times set-ups, then measures the last rig with tracing off.
// Half of the o.setups timed set-ups run before the measured window,
// after setupWarm untimed ones, and half after it, so setup_s samples the
// host at both ends of the run.
func runEndToEnd(o options, w workload, pools [][]echorpc.Echoarr, dur time.Duration, out io.Writer) (result, error) {
	setup := make([]int64, 0, o.setups)
	timeSetups := func(untimed, timed int) (*rig, error) {
		var r *rig
		for i := 0; i < untimed+timed; i++ {
			if r != nil {
				r.close()
			}
			t0 := time.Now()
			var err error
			if r, err = buildRig(w, nil); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			if i >= untimed {
				setup = append(setup, int64(time.Since(t0)))
			}
		}
		return r, nil
	}
	r, err := timeSetups(setupWarm, o.setups/2)
	if err != nil {
		return result{}, err
	}
	lr := runLoop(r, w, pools, nil, o.warm, dur, slicesFor(dur), windowHooks{})
	r.close()
	if r, err = timeSetups(0, o.setups-o.setups/2); err != nil {
		return result{}, err
	}
	r.close()
	if lr.calls == 0 {
		return result{}, fmt.Errorf("no call completed in the window (first error: %v)", lr.firstErr)
	}
	rate := lr.center(func(s *slice) float64 { return float64(s.lat.n.Load()) / s.dur.Seconds() })
	pct := func(q float64) float64 {
		return lr.center(func(s *slice) float64 { return s.lat.quantile(q) }) / 1e3
	}
	failed := lr.errs + lr.wrong
	m := map[string]metric{
		"setup_s":         {quantile(setup, 0.5) / 1e9, "s"},
		"calls_per_s":     {rate, "1/s"},
		"payload_MBps":    {rate * float64(8*w.n) / 1e6, "MB/s"},
		"lat_p50_us":      {pct(0.50), "us"},
		"cpu_us_per_call": {lr.center(func(s *slice) float64 { return float64(s.cpu) / 1e3 / float64(max(s.lat.n.Load(), 1)) }), "us"},
		"mem_peak_MB":     {peakRSSMB(), "MB"},
	}
	printMetrics(out, m, nil)
	// Printed but left out of the JSON line: the tail percentiles swing
	// between runs by more than any usable bound on a shared host (see
	// README.md), and fail_frac is 0 whenever the run is correct.
	fmt.Fprintf(out, "  %-32s %14.4f %s\n", "lat_p99_us", pct(0.99), "us")
	fmt.Fprintf(out, "  %-32s %14.4f %s\n", "lat_p999_us", pct(0.999), "us")
	fmt.Fprintf(out, "  %-32s %14.6f %s (%d errors + %d wrong replies of %d attempted)\n", "fail_frac",
		float64(failed)/float64(lr.attempted), "frac", lr.errs, lr.wrong, lr.attempted)
	fmt.Fprintf(out, "  (%d latency samples in %d slices of %v; rates, CPU and percentiles are interquartile means over the slices;"+
		" setup_s is the median of %d set-ups)\n", lr.calls, len(lr.slices), dur/time.Duration(len(lr.slices)), o.setups)
	fmt.Fprint(out, "  per slice calls/s, p50 us, p99 us:")
	for i := range lr.slices {
		sl := &lr.slices[i]
		fmt.Fprintf(out, " %.0f,%.1f,%.1f", float64(sl.lat.n.Load())/sl.dur.Seconds(), sl.lat.quantile(0.5)/1e3, sl.lat.quantile(0.99)/1e3)
	}
	fmt.Fprintln(out)
	if lr.firstErr != nil {
		fmt.Fprintln(out, "  first error:", lr.firstErr)
	}
	return result{Correct: failed == 0, Attempted: lr.attempted, Failed: failed, Metrics: m}, nil
}

// printMetrics lists m by name; a metric with a reason in na is printed
// as not applicable, with the reason.
func printMetrics(out io.Writer, m map[string]metric, na map[string]string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if why, ok := na[k]; ok {
			fmt.Fprintf(out, "  %-32s %14s %-7s n/a: %s\n", k, "-", m[k].Unit, why)
			continue
		}
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB: VmHWM from
// /proc/self/status, which starts afresh at exec. ru_maxrss is the
// fallback; on Linux it also counts the shell that exec'd the benchmark.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
