package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/proto"
)

// tracer is the traced run's per-layer instrumentation, living inside
// the system-under-test process. It times calls into the layers' public
// functions from the outside — a Doer wrapper, a Journal wrapper, a
// replica of the /v1/push handler, a trace observer, and runtime/metrics
// — and keeps every sample in memory until GET /bench/dump. POST
// /bench/mark starts the measured window: samples taken before it
// (install, store open and restore) are kept, window samples reset.
type tracer struct {
	membersOf map[string]int // trigger identity → member applets
	byApplet  bool           // key executions by applet too (exec IDs repeat across nodes)

	// Setup samples, written by the installing goroutine before serving.
	installUs  []float64
	heapBefore uint64
	heapPerApp float64
	openDur    time.Duration
	restoreDur time.Duration

	dials atomic.Int64

	mu              sync.Mutex
	installAppendUs []float64 // kept across the mark, like installUs
	win             windowSamples
}

type execKey struct {
	exec   uint64
	applet string
}

// windowSamples are reset by /bench/mark.
type windowSamples struct {
	pollRTTUs, actionRTTUs        []float64
	polls, pollFails              int64
	actions, actionFails          int64
	pushHandlerUs, pushRouteUs    []float64
	queueWaitMs, dispatchActionMs []float64
	ckptUs                        []float64
	pollResults, pollUseful       int64
	execsFresh, actionsSent       int64
	freshPairs, offeredPairs      int64
	dispatchAt                    map[execKey]time.Time
}

func newTracer(defs []engine.Applet, byApplet bool) *tracer {
	t := &tracer{membersOf: make(map[string]int), byApplet: byApplet}
	for i := range defs {
		t.membersOf[defs[i].CoalescedTriggerIdentity()]++
	}
	t.win.dispatchAt = make(map[execKey]time.Time)
	return t
}

// installStart and installEnd bracket the population install; the
// post-GC heap delta over it is the per-applet footprint.
func (t *tracer) installStart() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.heapBefore = ms.HeapAlloc
}

func (t *tracer) installed(d time.Duration) { t.installUs = append(t.installUs, us(d)) }

func (t *tracer) installEnd(n int) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if n > 0 && ms.HeapAlloc > t.heapBefore {
		t.heapPerApp = float64(ms.HeapAlloc-t.heapBefore) / float64(n)
	}
}

func (t *tracer) countDials(dial func(ctx context.Context, network, addr string) (net.Conn, error)) func(context.Context, string, string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		t.dials.Add(1)
		return dial(ctx, network, addr)
	}
}

// tracedDoer times trigger polls and action calls, reading each body in
// full so the round trip includes the transfer.
type tracedDoer struct {
	next httpx.Doer
	t    *tracer
}

func (t *tracer) wrapDoer(d httpx.Doer) httpx.Doer { return tracedDoer{next: d, t: t} }

func (d tracedDoer) Do(req *http.Request) (*http.Response, error) {
	poll := strings.Contains(req.URL.Path, proto.TriggersPath) && req.Method == http.MethodPost
	action := strings.Contains(req.URL.Path, proto.ActionsPath)
	if !poll && !action {
		return d.next.Do(req)
	}
	members := 0
	if poll && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		var pr struct {
			ID string `json:"trigger_identity"`
		}
		if json.Unmarshal(body, &pr) == nil {
			members = d.t.membersOf[pr.ID]
		}
	}
	t0 := time.Now()
	resp, err := d.next.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	rtt := us(time.Since(t0))
	ok := err == nil && resp.StatusCode == http.StatusOK
	events := 0
	if poll && ok {
		var pr struct {
			Data []json.RawMessage `json:"data"`
		}
		if json.Unmarshal(body, &pr) == nil {
			events = len(pr.Data)
		}
	}
	d.t.mu.Lock()
	w := &d.t.win
	if poll {
		w.polls++
		w.pollRTTUs = append(w.pollRTTUs, rtt)
		if !ok {
			w.pollFails++
		}
		w.offeredPairs += int64(events * members)
	} else {
		w.actions++
		w.actionRTTUs = append(w.actionRTTUs, rtt)
		if !ok {
			w.actionFails++
		}
	}
	d.t.mu.Unlock()
	return resp, err
}

// observe is the engine trace observer (Config.Observers).
func (t *tracer) observe(ev engine.TraceEvent) {
	key := execKey{exec: ev.ExecID}
	if t.byApplet {
		key.applet = ev.AppletID
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w := &t.win
	switch ev.Kind {
	case engine.TracePollResult:
		w.pollResults++
		if ev.N > 0 {
			w.pollUseful++
		}
		t.execStarted(key, ev)
	case engine.TracePushDispatch:
		w.queueWaitMs = append(w.queueWaitMs, ms(ev.Time.Sub(ev.IngestAt)))
		t.execStarted(key, ev)
	case engine.TraceActionSent:
		w.actionsSent++
	case engine.TraceActionAcked:
		if at, ok := w.dispatchAt[key]; ok {
			w.dispatchActionMs = append(w.dispatchActionMs, ms(ev.Time.Sub(at)))
		}
	}
}

func (t *tracer) execStarted(key execKey, ev engine.TraceEvent) {
	w := &t.win
	w.freshPairs += int64(ev.N)
	if ev.N == 0 {
		return
	}
	w.execsFresh++
	w.dispatchAt[key] = ev.Time
	if len(w.dispatchAt) > 1<<16 {
		for k, at := range w.dispatchAt {
			if ev.Time.Sub(at) > 10*time.Second {
				delete(w.dispatchAt, k)
			}
		}
	}
}

// timedJournal times the durable store's appends.
type timedJournal struct {
	engine.Journal
	t *tracer
}

func (j *timedJournal) AppendInstall(a engine.Applet) error {
	t0 := time.Now()
	err := j.Journal.AppendInstall(a)
	d := us(time.Since(t0))
	j.t.mu.Lock()
	j.t.installAppendUs = append(j.t.installAppendUs, d)
	j.t.mu.Unlock()
	return err
}

func (j *timedJournal) AppendCheckpoint(cp engine.Checkpoint) error {
	t0 := time.Now()
	err := j.Journal.AppendCheckpoint(cp)
	d := us(time.Since(t0))
	j.t.mu.Lock()
	j.t.win.ckptUs = append(j.t.win.ckptUs, d)
	j.t.mu.Unlock()
	return err
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
	"/sched/latencies:seconds",
}

// runtimeSample is one read of the Go runtime's own counters.
type runtimeSample struct {
	gcCPU, totalCPU  float64
	cycles, heapLive uint64
	schedCounts      []uint64
	schedBuckets     []float64
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return runtimeSample{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		cycles:       s[2].Value.Uint64(),
		heapLive:     s[3].Value.Uint64(),
		schedCounts:  append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

// schedP99Us is the 99th percentile scheduling latency, in µs, of the
// goroutine wake-ups between two samples (bucket upper bound).
func schedP99Us(from, to runtimeSample) float64 {
	var total uint64
	for i := range to.schedCounts {
		total += to.schedCounts[i] - from.schedCounts[i]
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100
	var seen uint64
	for i := range to.schedCounts {
		seen += to.schedCounts[i] - from.schedCounts[i]
		if seen >= rank {
			return to.schedBuckets[i+1] * 1e6
		}
	}
	return to.schedBuckets[len(to.schedBuckets)-1] * 1e6
}

// counters is the engine- and store-level state read at mark and dump.
type counters struct {
	rt         runtimeSample
	stats      engine.Stats // summed over nodes (ingress and push fields)
	nodeAcked  []int64
	traceDrops int64
	walBytes   int64
}

func readCounters(engines []*engine.Engine, stores []*durable.Store) counters {
	c := counters{rt: readRuntime()}
	for _, e := range engines {
		s := e.Stats()
		c.stats.IngressAccepted += s.IngressAccepted
		c.stats.IngressRejected += s.IngressRejected
		c.stats.IngressUnmatched += s.IngressUnmatched
		c.stats.PushBatches += s.PushBatches
		c.stats.PushEvents += s.PushEvents
		c.nodeAcked = append(c.nodeAcked, s.ActionsOK)
		c.traceDrops += e.TraceDrops()
	}
	for _, st := range stores {
		c.walBytes += st.WALSizeOnDisk()
	}
	return c
}

// handler serves the host's surface plus the tracing endpoints, with
// /v1/push answered by a replica of the engine's own push handler
// (decode, PushDeliveries, encode) that times the whole request and
// the routing call inside it.
func (t *tracer) handler(next http.Handler, h host, engines []*engine.Engine, stores []*durable.Store) http.Handler {
	mark := readCounters(engines, stores) // until /bench/mark, windows start here
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc("POST "+proto.PushPath, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		var b proto.PushBatch
		if err := httpx.ReadJSON(r, &b); err != nil {
			httpx.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		offered := 0
		for _, d := range b.Data {
			offered += len(d.Events) * t.membersOf[d.TriggerIdentity]
		}
		t1 := time.Now()
		resp := h.PushDeliveries(b.Data)
		route := us(time.Since(t1))
		status := http.StatusOK
		if resp.Rejected > 0 {
			status = http.StatusTooManyRequests
		}
		httpx.WriteJSON(w, status, resp)
		total := us(time.Since(t0))
		t.mu.Lock()
		t.win.pushHandlerUs = append(t.win.pushHandlerUs, total)
		t.win.pushRouteUs = append(t.win.pushRouteUs, route)
		t.win.offeredPairs += int64(offered)
		t.mu.Unlock()
	})
	mux.HandleFunc("POST /bench/mark", func(w http.ResponseWriter, r *http.Request) {
		t.mu.Lock()
		t.win = windowSamples{dispatchAt: make(map[execKey]time.Time)}
		t.dials.Store(0)
		mark = readCounters(engines, stores)
		t.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /bench/dump", func(w http.ResponseWriter, r *http.Request) {
		t.mu.Lock()
		defer t.mu.Unlock()
		httpx.WriteJSON(w, http.StatusOK, t.layerMetrics(mark, readCounters(engines, stores)))
	})
	return mux
}

// layerMetrics computes the SUT-side per-layer metrics of the window
// between two counter reads. Caller holds t.mu.
func (t *tracer) layerMetrics(from, to counters) map[string]float64 {
	w := &t.win
	m := map[string]float64{
		"engine.install_us_p50":            pct(t.installUs, 50),
		"engine.install_us_p99":            pct(t.installUs, 99),
		"engine.heap_bytes_per_applet":     t.heapPerApp,
		"engine.poll_rtt_us_p50":           pct(w.pollRTTUs, 50),
		"engine.poll_rtt_us_p99":           pct(w.pollRTTUs, 99),
		"engine.poll_fail_frac":            frac(w.pollFails, w.polls),
		"engine.poll_useful_frac":          frac(w.pollUseful, w.pollResults),
		"engine.fresh_frac":                frac(w.freshPairs, w.offeredPairs),
		"engine.fanout_mean":               frac(w.actionsSent, w.execsFresh),
		"engine.dispatch_to_action_ms_p50": pct(w.dispatchActionMs, 50),
		"ingest.push_handler_us_p50":       pct(w.pushHandlerUs, 50),
		"ingest.push_handler_us_p99":       pct(w.pushHandlerUs, 99),
		"ingest.queue_wait_ms_p50":         pct(w.queueWaitMs, 50),
		"ingest.queue_wait_ms_p99":         pct(w.queueWaitMs, 99),
		"ingest.rejected_frac": frac(to.stats.IngressRejected-from.stats.IngressRejected,
			(to.stats.IngressAccepted+to.stats.IngressRejected+to.stats.IngressUnmatched)-
				(from.stats.IngressAccepted+from.stats.IngressRejected+from.stats.IngressUnmatched)),
		"ingest.events_per_dispatch": frac(to.stats.IngressAccepted-from.stats.IngressAccepted,
			to.stats.PushBatches-from.stats.PushBatches),
		"httpx.action_rtt_us_p50":          pct(w.actionRTTUs, 50),
		"httpx.action_rtt_us_p99":          pct(w.actionRTTUs, 99),
		"httpx.action_fail_frac":           frac(w.actionFails, w.actions),
		"httpx.dials":                      float64(t.dials.Load()),
		"durable.append_checkpoint_us_p50": pct(w.ckptUs, 50),
		"durable.append_checkpoint_us_p99": pct(w.ckptUs, 99),
		"durable.append_install_us_p50":    pct(t.installAppendUs, 50),
		"durable.wal_bytes_per_event": frac(to.walBytes-from.walBytes,
			to.stats.PushEvents-from.stats.PushEvents),
		"durable.open_s":       t.openDur.Seconds(),
		"durable.restore_s":    t.restoreDur.Seconds(),
		"obs.trace_drops":      float64(to.traceDrops - from.traceDrops),
		"gc.cycles":            float64(to.rt.cycles - from.rt.cycles),
		"gc.heap_live_mb":      float64(to.rt.heapLive) / (1 << 20),
		"sched.latency_us_p99": schedP99Us(from.rt, to.rt),
		"gc.cpu_frac":          frac(to.rt.gcCPU-from.rt.gcCPU, to.rt.totalCPU-from.rt.totalCPU),
	}
	// The router exists only with several nodes; a single engine has
	// no routing step and one node carries every action.
	m["cluster.push_route_us_p50"], m["cluster.push_route_us_p99"] = 0, 0
	if len(to.nodeAcked) > 1 {
		m["cluster.push_route_us_p50"] = pct(w.pushRouteUs, 50)
		m["cluster.push_route_us_p99"] = pct(w.pushRouteUs, 99)
	}
	var most, sum int64
	for i := range to.nodeAcked {
		d := to.nodeAcked[i] - from.nodeAcked[i]
		most = max(most, d)
		sum += d
	}
	m["cluster.node_action_skew"] = frac(most*int64(len(to.nodeAcked)), sum)
	return m
}
