package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// contract is the part of ../BENCHMARK.json the JSON line must match.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly with tracing off and on. Each
// run must be correct and report exactly the metrics, with the units,
// that BENCHMARK.json lists for its mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sockets for a few seconds")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		w, ok := findWorkload(cw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown", cw.Name)
		}
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 3, seconds: 0.2, trace: trace, warm: 50 * time.Millisecond, setups: 3}
			want := c.EndToEnd
			if trace {
				o.spans = filepath.Join(t.TempDir(), "spans.tsv")
				want = c.PerLayer
			}
			var out bytes.Buffer
			res, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s: got %+v (present %t), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace && !strings.Contains(out.String(), "coverage 1.0000") {
				t.Errorf("%s: traced spans do not cover every call:\n%s", w.name, out.String())
			}
		}
	}
}
