package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricSpec names one printed metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the user-visible metrics of an untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"t2a_p50_ms", "ms"},
	{"actions_per_s", "1/s"},
	{"cpu_ginstr_per_s", "Ginstr/s"},
}

// perLayer are the traced run's metrics (--trace 1); README.md maps
// each to the end-to-end metric it should move.
var perLayer = []metricSpec{
	{"engine.install_us_p50", "us"},
	{"engine.install_us_p99", "us"},
	{"engine.heap_bytes_per_applet", "bytes"},
	{"engine.poll_rtt_us_p50", "us"},
	{"engine.poll_rtt_us_p99", "us"},
	{"engine.poll_fail_frac", "ratio"},
	{"engine.poll_useful_frac", "ratio"},
	{"engine.poll_lateness_ms_p99", "ms"},
	{"engine.polls_per_s", "1/s"},
	{"engine.fresh_frac", "ratio"},
	{"engine.fanout_mean", "count"},
	{"engine.dispatch_to_action_ms_p50", "ms"},
	{"ingest.push_handler_us_p50", "us"},
	{"ingest.push_handler_us_p99", "us"},
	{"ingest.queue_wait_ms_p50", "ms"},
	{"ingest.queue_wait_ms_p99", "ms"},
	{"ingest.rejected_frac", "ratio"},
	{"ingest.events_per_dispatch", "count"},
	{"httpx.action_rtt_us_p50", "us"},
	{"httpx.action_rtt_us_p99", "us"},
	{"httpx.action_fail_frac", "ratio"},
	{"httpx.dials", "count"},
	{"durable.append_checkpoint_us_p50", "us"},
	{"durable.append_checkpoint_us_p99", "us"},
	{"durable.append_install_us_p50", "us"},
	{"durable.wal_bytes_per_event", "bytes"},
	{"durable.open_s", "s"},
	{"durable.restore_s", "s"},
	{"durable.recovery_s", "s"},
	{"cluster.push_route_us_p50", "us"},
	{"cluster.push_route_us_p99", "us"},
	{"cluster.node_action_skew", "ratio"},
	{"obs.trace_drops", "count"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"gc.heap_live_mb", "MB"},
	{"sched.latency_us_p99", "us"},
	{"gen.late_ms_p99", "ms"},
	{"gen.cpu_cores", "cores"},
	{"failed_frac", "ratio"},
	{"t2a.window_p99_ms", "ms"},
	{"t2a.block_p99_ms", "ms"},
	{"sut.cpu_cores", "cores"},
	{"trace.cpu_cores", "cores"},
	{"trace.overhead", "ratio"},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    float64 // population and rate factor; 1 for real runs
	workdir  string  // working directory for applet files and WALs
	// replayOne makes the sink book its first action twice (self-test
	// of the exactly-once ledger).
	replayOne bool
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

// warmup precedes the measured window on the same schedule: it fills
// connection pools and lets the engine's lazy state settle.
const warmup = time.Second

// p99Block is how many consecutive expected actions, in due order,
// make one block of t2a.block_p99_ms.
const p99Block = 500

// blockP99 is t2a.block_p99_ms: the window's actions are cut in due
// order into blocks of p99Block, and this is the median over blocks of
// each block's p99. It is not the window's p99 (t2a.window_p99_ms): a
// stall that lands in fewer than half the blocks does not move it.
func blockP99(t2a []float64) float64 {
	var p99s []float64
	for i := 0; i+p99Block <= len(t2a) || (i == 0 && len(t2a) > 0); i += p99Block {
		p99s = append(p99s, pct(t2a[i:min(len(t2a), i+p99Block)], 99))
	}
	return median(p99s)
}

// plan is what one pass does around its measured window.
type plan struct {
	setups     int // SUT starts; the last one serves the window
	recoveries int // kill -9 and restart cycles after the window; WAL workloads only
	trace      bool
	count      bool // count the child's instructions (instr.go)
}

// setups is how many times an untraced latency pass starts the child;
// setup_s is their median. A setup with a WAL costs about 3 s of wall
// time (1.3 s to journal the population with fsync on, and 2 s to
// delete its directory afterwards on this ext4 disk), so the WAL
// workload starts fewer.
func (w workload) setups() int {
	if w.wal {
		return 5
	}
	return 9
}

// passResult is what one pass measured.
type passResult struct {
	setupS, recoveryS []float64
	t2a               []float64 // ms, window pairs in due order, +Inf when missing
	windowS           float64
	sutCPU, genCPU    float64 // seconds over the window
	instrPerS         float64 // child user-space instructions per second over the counted window
	rssMB             float64
	attempted, failed int64
	problems          []string
	genLateMs         []float64
	pollsPerS         float64
	pollLateMs        []float64
	layers            map[string]float64
	actionsPerS       float64 // sink receipts inside the window per window second
}

func run(opts options) (result, error) {
	w, ok := findWorkload(opts.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", opts.workload)
	}
	w = w.scaled(opts.scale)
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(opts.workdir, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	window := time.Duration(opts.seconds) * time.Second

	if !opts.trace {
		// A latency pass with an uncounted child, then a shorter pass on the
		// same seed that counts the child's instructions (instr.go).
		p, err := runPass(w, opts, filepath.Join(dir, "e2e"), window, plan{setups: w.setups(), recoveries: 1})
		if err != nil {
			return result{}, err
		}
		c, err := runPass(w, opts, filepath.Join(dir, "count"), max(time.Second, window/2), plan{setups: 1, count: true})
		if err != nil {
			return result{}, err
		}
		res := newResult(p)
		res.Attempted += c.attempted
		res.Failed += c.failed
		res.Correct = res.Correct && len(c.problems) == 0
		vals := map[string]float64{
			"setup_s":          median(p.setupS),
			"peak_rss_mb":      p.rssMB,
			"t2a_p50_ms":       pct(p.t2a, 50),
			"actions_per_s":    p.actionsPerS,
			"cpu_ginstr_per_s": c.instrPerS / 1e9,
		}
		return fill(res, endToEnd, vals)
	}

	// Traced run: an untraced pass and a traced pass on the same seed;
	// the CPU ratio between them is the tracing overhead.
	base, err := runPass(w, opts, filepath.Join(dir, "base"), window, plan{setups: 1, recoveries: 1})
	if err != nil {
		return result{}, err
	}
	tp, err := runPass(w, opts, filepath.Join(dir, "traced"), window, plan{setups: 1, recoveries: 1, trace: true})
	if err != nil {
		return result{}, err
	}
	res := newResult(base)
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	res.Correct = res.Correct && len(tp.problems) == 0
	vals := tp.layers
	vals["engine.poll_lateness_ms_p99"] = pct(tp.pollLateMs, 99)
	vals["engine.polls_per_s"] = tp.pollsPerS
	vals["gen.late_ms_p99"] = pct(tp.genLateMs, 99)
	vals["gen.cpu_cores"] = tp.genCPU / tp.windowS
	vals["failed_frac"] = frac(tp.failed, tp.attempted)
	vals["t2a.window_p99_ms"] = pct(base.t2a, 99)
	vals["t2a.block_p99_ms"] = blockP99(base.t2a)
	vals["durable.recovery_s"] = median(base.recoveryS)
	vals["sut.cpu_cores"] = base.sutCPU / base.windowS
	vals["trace.cpu_cores"] = tp.sutCPU / tp.windowS
	vals["trace.overhead"] = frac(tp.sutCPU/tp.windowS, base.sutCPU/base.windowS)
	return fill(res, perLayer, vals)
}

func newResult(p passResult) result {
	return result{Correct: len(p.problems) == 0, Attempted: p.attempted, Failed: p.failed}
}

// fill copies every catalogued metric into res; a missing one is a bug.
func fill(res result, specs []metricSpec, vals map[string]float64) (result, error) {
	res.Metrics = make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // JSON has no +Inf; only a failed run gets here
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// runPass runs one workload pass in dir: fresh partner services, sink,
// population and schedule; plan.setups SUT starts; the open-loop
// window; the ledger audit; then plan.recoveries kill -9 cycles.
func runPass(w workload, opts options, dir string, window time.Duration, pl plan) (passResult, error) {
	var res passResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	if !w.wal {
		pl.recoveries = 0 // a restart without a WAL is a cold setup
	}
	partners := make([]*partner, partnerServices)
	urls := make([]string, partnerServices)
	for i := range partners {
		p, err := newPartner(i, pl.trace, w.pollInterval)
		if err != nil {
			return res, err
		}
		defer p.close()
		partners[i], urls[i] = p, p.url
	}
	snk := &sink{}
	snk.replayOne.Store(opts.replayOne)
	sinkSrv, err := serve(snk)
	if err != nil {
		return res, err
	}
	defer sinkSrv.close()

	pop := newPopulation(w, opts.seed, urls, sinkSrv.url)
	appletsPath := filepath.Join(dir, "applets.json")
	if err := writeJSON(appletsPath, pop.applets); err != nil {
		return res, err
	}
	pop.applets = nil // the SUT reads them from the file; keep this process's heap small
	runtime.GC()
	sched := newSchedule(w, opts.seed, warmup, window)
	led := newLedger(pop, sched)

	cfg := sutConfig{
		Applets: appletsPath, Push: w.push, SLO: w.slo, Nodes: w.nodes, Shards: w.shards,
		PollInterval: w.pollInterval, Seed: opts.seed, Trace: pl.trace, Count: pl.count,
	}
	var sut *sutProc
	defer func() {
		if sut != nil {
			sut.kill()
		}
	}()
	for i := 0; i < pl.setups; i++ {
		if sut != nil {
			sut.kill() // its WAL directory goes with the pass: deleting one takes seconds
		}
		if w.wal {
			cfg.WALDir = filepath.Join(dir, fmt.Sprintf("wal%d", i))
		}
		if sut, err = startSUT(dir, cfg); err != nil {
			return res, err
		}
		res.setupS = append(res.setupS, sut.ready.Seconds())
		if err := sut.expectApplets(w.applets); err != nil {
			res.problems = append(res.problems, "setup: "+err.Error())
		}
	}
	if w.wal {
		// The setups leave megabytes of WAL pages dirty, and the kernel
		// writes them back at a time of its choosing: inside the window,
		// the checkpoint fsyncs waited on that writeback. On five seeds,
		// flushing first halved the spread of the child's CPU seconds on
		// push-durable.
		syncTree(dir)
		time.Sleep(time.Second)
	}
	if w.pollInterval > 0 {
		// Events published before an identity's first poll would have no
		// buffer to land in: wait until every subscription was polled.
		deadline := time.Now().Add(4*w.pollInterval + 10*time.Second)
		for polled(partners) < w.identities {
			if time.Now().After(deadline) {
				return res, fmt.Errorf("only %d of %d subscriptions polled", polled(partners), w.identities)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The measured window.
	start := time.Now().Add(50 * time.Millisecond)
	led.start = start
	snk.ledger.Store(led)
	gen := newGenerator(sched, pop, start)
	send := gen.sendPublish(partners)
	if w.push {
		pu := newPusher(sut.url)
		defer pu.close()
		send = gen.sendPush(pu)
	}
	genDone := make(chan struct{})
	go func() { gen.run(send); close(genDone) }()
	time.Sleep(time.Until(start.Add(sched.warm)))
	cpu0, err := procCPU(sut.pid())
	if err != nil {
		return res, err
	}
	var instr0 instrSample
	if pl.count {
		if instr0, err = sut.instructions("start"); err != nil {
			return res, err
		}
	}
	self0, polls0, recv0, t0 := selfCPU(), partnerPolls(partners), led.received.Load(), time.Now()
	if pl.trace {
		if err := sut.post("/bench/mark"); err != nil {
			return res, err
		}
	}
	time.Sleep(time.Until(start.Add(sched.end)))
	cpu1, err := procCPU(sut.pid())
	if err != nil {
		return res, err
	}
	res.windowS = time.Since(t0).Seconds()
	if pl.count {
		instr1, err := sut.instructions("end")
		if err != nil {
			return res, err
		}
		res.instrPerS = (instr1.Instructions - instr0.Instructions) / (instr1.Seconds - instr0.Seconds)
	}
	res.sutCPU = (cpu1 - cpu0).Seconds()
	res.genCPU = (selfCPU() - self0).Seconds()
	res.pollsPerS = float64(partnerPolls(partners)-polls0) / res.windowS
	res.actionsPerS = float64(led.received.Load()-recv0) / res.windowS
	<-genDone

	deadline := time.Now().Add(2*w.t2aLimit + time.Second)
	for !led.complete() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // let a late duplicate show
	if res.rssMB, err = peakRSSMB(sut.pid()); err != nil {
		return res, err
	}
	if pl.trace {
		if res.layers, err = sut.dump(); err != nil {
			return res, err
		}
	}
	sut.kill()

	// Crash recovery of a durable SUT: kill -9, restart from the WAL
	// alone, and check that every applet is back. The ledger stays
	// attached: nothing may execute again.
	rcfg := cfg
	rcfg.Applets = ""
	for r := 0; r < pl.recoveries; r++ {
		if r > 0 {
			sut.kill()
		}
		if sut, err = startSUT(dir, rcfg); err != nil {
			return res, err
		}
		res.recoveryS = append(res.recoveryS, sut.ready.Seconds())
		if err := sut.expectApplets(w.applets); err != nil {
			res.problems = append(res.problems, "recovery: "+err.Error())
		}
	}
	if pl.recoveries > 0 && pl.trace {
		rec, err := sut.dump()
		if err != nil {
			return res, err
		}
		res.layers["durable.open_s"], res.layers["durable.restore_s"] = rec["durable.open_s"], rec["durable.restore_s"]
	}
	if pl.recoveries > 0 && w.reoffer > 0 {
		if err := reoffer(sut, gen, led, w.reoffer); err != nil {
			res.problems = append(res.problems, "re-offer: "+err.Error())
		}
	}

	res.t2a = led.windowT2A()
	attempted, missing, dup, stray := led.audit()
	res.attempted, res.failed = attempted, missing+dup+stray
	if res.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("ledger: of %d expected actions %d missing (%d events refused with 429), %d duplicates, %d stray",
			attempted, missing, gen.refused.Load(), dup, stray))
	}
	if n := gen.errs.Load(); n > 0 {
		res.problems = append(res.problems, fmt.Sprintf("generator: %d failed sends, last: %v", n, gen.lastErr))
	}
	res.genLateMs = gen.windowLate()
	if late := pct(res.genLateMs, 99); late > ms(w.t2aLimit) {
		res.problems = append(res.problems, fmt.Sprintf("generator ran %.1f ms late at p99, over the %v T2A limit", late, w.t2aLimit))
	}
	for _, p := range partners {
		p.mu.Lock()
		res.pollLateMs = append(res.pollLateMs, p.lateMs...)
		p.mu.Unlock()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v count=%v: setup=%v recovery=%v t2a p50=%.2fms block-p99=%.2fms p99=%.2fms actions/s=%.1f cpu=%.3f ginstr/s=%.4f rss=%.0fMB gen-late-p99=%.2fms problems=%d\n",
		w.name, opts.seed, pl.trace, pl.count, res.setupS, res.recoveryS, pct(res.t2a, 50), blockP99(res.t2a), pct(res.t2a, 99), res.actionsPerS,
		res.sutCPU/res.windowS, res.instrPerS/1e9, res.rssMB, pct(res.genLateMs, 99), len(res.problems))
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	return res, nil
}

// reoffer pushes the schedule's last n events again to the recovered
// engine. Their dedup state was checkpointed before their actions ran,
// so none may execute again.
func reoffer(sut *sutProc, gen *generator, led *ledger, n int) error {
	before := led.received.Load()
	pu := newPusher(sut.url)
	defer pu.close()
	total := len(gen.sched.at)
	accepted := 0
	for i := max(0, total-n); i < total; i += maxPushSize {
		batch := make([]int, 0, maxPushSize)
		for k := i; k < min(total, i+maxPushSize); k++ {
			batch = append(batch, k)
		}
		resp, err := pu.push(0, gen, batch)
		if err != nil {
			return err
		}
		if resp.Unmatched > 0 || resp.Rejected > 0 {
			return fmt.Errorf("%d events unmatched (applets lost), %d refused", resp.Unmatched, resp.Rejected)
		}
		accepted += resp.Accepted
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := sut.stats()
		if err != nil {
			return err
		}
		if st.IngressAccepted >= int64(accepted) && st.IngressDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine did not drain %d re-offered events", accepted)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	if got := led.received.Load() - before; got != 0 {
		return fmt.Errorf("%d of %d re-offered events executed again", got, accepted)
	}
	return nil
}

func polled(partners []*partner) int {
	n := 0
	for _, p := range partners {
		n += p.subscriptions()
	}
	return n
}

func partnerPolls(partners []*partner) int64 {
	var n int64
	for _, p := range partners {
		n += p.svc.Stats().Polls
	}
	return n
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sutProc is one running system-under-test child.
type sutProc struct {
	cmd    *exec.Cmd
	url    string
	ready  time.Duration // process start to "READY"
	client *http.Client
	done   chan struct{} // closed when the process was reaped
	once   sync.Once
}

// lineWriter captures the first line a child prints.
type lineWriter struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	ch   chan string
}

func (l *lineWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.sent {
		l.buf = append(l.buf, p...)
		if i := strings.IndexByte(string(l.buf), '\n'); i >= 0 {
			l.sent = true
			l.ch <- string(l.buf[:i])
		}
	}
	return len(p), nil
}

// startSUT writes cfg into dir and starts the child; it returns once
// the child announced its address, timing setup from process start.
func startSUT(dir string, cfg sutConfig) (*sutProc, error) {
	path := filepath.Join(dir, "sut.json")
	if err := writeJSON(path, cfg); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	lines := &lineWriter{ch: make(chan string, 1)}
	cmd := exec.Command(exe, path)
	cmd.Env = append(os.Environ(), roleEnv+"=sut")
	cmd.Stdout = lines
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &sutProc{cmd: cmd, client: &http.Client{Timeout: 30 * time.Second}, done: make(chan struct{})}
	runtime.GC() // so that this process collects no garbage while the start is timed
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sut: %w", err)
	}
	go func() {
		_ = cmd.Wait() // the child is killed on purpose; its exit status carries nothing
		close(p.done)
	}()
	select {
	case line := <-lines.ch:
		p.ready = time.Since(t0)
		addr, ok := strings.CutPrefix(line, "READY ")
		if !ok {
			p.kill()
			return nil, fmt.Errorf("sut printed %q", line)
		}
		p.url = "http://" + addr
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("sut exited before ready: %v", cmd.ProcessState)
	case <-time.After(150 * time.Second):
		p.kill()
		return nil, fmt.Errorf("sut not ready after 150 s")
	}
}

func (p *sutProc) pid() int { return p.cmd.Process.Pid }

// kill sends SIGKILL and waits for the child to be reaped.
func (p *sutProc) kill() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill() // fails only when the child already exited
		<-p.done
	})
}

type sutStats struct {
	Applets         int   `json:"applets"`
	IngressAccepted int64 `json:"ingress_accepted"`
	IngressDepth    int64 `json:"ingress_depth"`
}

func (p *sutProc) stats() (sutStats, error) {
	var st sutStats
	return st, p.getJSON("/v1/stats", &st)
}

func (p *sutProc) expectApplets(n int) error {
	st, err := p.stats()
	if err != nil {
		return err
	}
	if st.Applets != n {
		return fmt.Errorf("engine holds %d applets, want %d", st.Applets, n)
	}
	return nil
}

// instructions returns a counted child's user-space instructions at
// the start or the end of its counted window (instr.go).
func (p *sutProc) instructions(edge string) (instrSample, error) {
	var s instrSample
	return s, p.getJSON(instrPath+"?edge="+edge, &s)
}

func (p *sutProc) dump() (map[string]float64, error) {
	m := map[string]float64{}
	return m, p.getJSON("/bench/dump", &m)
}

func (p *sutProc) getJSON(path string, v any) error {
	resp, err := p.client.Get(p.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (p *sutProc) post(path string) error {
	resp, err := p.client.Post(p.url+path, "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
	}
	return nil
}
