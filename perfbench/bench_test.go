package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// The system under test is this binary re-executed; under `go test`
// that is the test binary, so TestMain dispatches the child role.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "sut" {
		os.Exit(sutMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// smoke runs a workload at 2% size for one second.
func smoke(t *testing.T, name string, trace, replayOne bool) result {
	t.Helper()
	res, err := run(options{
		workload: name, seed: 7, seconds: 1, trace: trace, scale: 0.02,
		workdir: t.TempDir(), replayOne: replayOne,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	return res
}

func checkMetrics(t *testing.T, res result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		if !ok {
			t.Errorf("metric %s missing", s.name)
			continue
		}
		if m.Unit != s.unit {
			t.Errorf("metric %s unit %q, want %q", s.name, m.Unit, s.unit)
		}
	}
}

// TestSmokeEveryWorkload runs each workload tiny, untraced and traced,
// and checks that it is correct and prints every metric with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res := smoke(t, w.name, trace, false)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				checkMetrics(t, res, specs)
				// actions_per_s is left out on poll-steady: its few events
				// are delivered at the next 2 s poll, which may fall after
				// the one-second window.
				names := []string{"setup_s", "t2a_p50_ms", "peak_rss_mb", "cpu_ginstr_per_s"}
				if w.push {
					names = append(names, "actions_per_s")
				}
				if trace {
					names = []string{"t2a.block_p99_ms", "engine.install_us_p50"}
					if w.wal {
						names = append(names, "durable.recovery_s", "durable.restore_s")
					}
				}
				for _, name := range names {
					if v := res.Metrics[name].Value; v <= 0 {
						t.Errorf("trace=%v: %s = %v, want > 0", trace, name, v)
					}
				}
			}
		})
	}
}

// TestReplayedActionFails checks the exactly-once ledger end to end: a
// sink that books one action twice must fail the run and raise
// failed_frac above zero.
func TestReplayedActionFails(t *testing.T) {
	res := smoke(t, "push-fanout", true, true)
	if res.Correct {
		t.Fatal("run with a replayed action reported correct")
	}
	if res.Failed < 1 {
		t.Errorf("failed = %d, want ≥ 1", res.Failed)
	}
	if v := res.Metrics["failed_frac"].Value; v <= 0 {
		t.Errorf("failed_frac = %v, want > 0", v)
	}
}

// TestLedgerAudit books actions by hand: one pair missing, one executed
// twice, one action for an applet the event does not trigger.
func TestLedgerAudit(t *testing.T) {
	w := workload{applets: 6, identities: 3, rate: 10}
	pop := newPopulation(w, 1, []string{"p0", "p1", "p2", "p3"}, "sink")
	sched := &schedule{at: []time.Duration{0, time.Second}, ident: []int32{0, 2}, end: 2 * time.Second}
	led := newLedger(pop, sched)
	led.start = time.Now()
	appletsOf := func(id int32) []int {
		var out []int
		for a, i := range pop.identOf {
			if i == id {
				out = append(out, a)
			}
		}
		return out
	}
	for _, a := range appletsOf(0) {
		led.record(a, 0, led.start)
	}
	if led.complete() {
		t.Fatal("complete before event 1 arrived")
	}
	second := appletsOf(2)
	led.record(second[0], 1, led.start)
	led.record(second[0], 1, led.start)       // duplicate
	led.record(appletsOf(1)[0], 1, led.start) // stray: identity 1 has no event 1
	attempted, missing, dup, stray := led.audit()
	if attempted != 4 || missing != 1 || dup != 1 || stray != 1 {
		t.Fatalf("audit = (%d attempted, %d missing, %d dup, %d stray), want (4, 1, 1, 1)", attempted, missing, dup, stray)
	}
	if t2a := led.windowT2A(); len(t2a) != 4 || t2a[3] != inf {
		t.Fatalf("windowT2A = %v, want four pairs, the missing one +Inf", t2a)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json in step with the
// workloads and metrics this program defines.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []spec                       `json:"end_to_end"`
		PerLayer  []spec                       `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []spec, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program has %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestBlockP99(t *testing.T) {
	t2a := make([]float64, 3*p99Block+10) // the 10 left over are dropped
	for i := range t2a {
		t2a[i] = float64(i % p99Block) // each block's p99 is 0.99*p99Block-ish
	}
	t2a[len(t2a)-1] = inf
	want := pct(t2a[:p99Block], 99)
	if got := blockP99(t2a); got != want {
		t.Fatalf("blockP99 = %v, want %v", got, want)
	}
	if got := blockP99([]float64{3, 1, 2}); got != 3 {
		t.Fatalf("blockP99 of a short window = %v, want its p99 3", got)
	}
}
