package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// The system under test runs in a child process of the benchmark
// binary (re-executed with roleEnv=sut), so the load generator never
// shares its heap or scheduler and its CPU and RSS read cleanly from
// /proc. It assembles the engine from the constructors cmd/iftttd uses
// — engine.New, cluster.New, durable.Open/Restore/Start, Handler() —
// with DispatchDelay disabled, as the engine benchmarks do: the
// daemon's fixed 1 s model of the paper's processing delay would
// otherwise be the only thing measured.

const roleEnv = "PERFBENCH_ROLE"

// sutConfig is the child's whole input besides the applet file.
type sutConfig struct {
	Applets      string        `json:"applets"` // JSON []engine.Applet; empty = recover only
	Push         bool          `json:"push"`
	SLO          bool          `json:"slo"`
	Nodes        int           `json:"nodes"`
	Shards       int           `json:"shards"`
	WALDir       string        `json:"wal_dir"`
	PollInterval time.Duration `json:"poll_interval"`
	Seed         uint64        `json:"seed"`
	Trace        bool          `json:"trace"`
	Count        bool          `json:"count"` // count instructions (instr.go)
}

// host is the surface engine.Engine and cluster.Cluster share.
type host interface {
	Install(engine.Applet) error
	Handler() http.Handler
	PushDeliveries([]proto.PushDelivery) proto.PushResponse
	Stop()
}

// spreadInterval is a fixed poll interval whose first gap — drawn while
// the population is being installed — is uniform in [interval,
// 2×interval), so the polls are spread as they would be for applets
// that arrived over time. A bulk install with a plain FixedInterval
// would poll every subscription in one burst per interval, forever. No
// poll starts before one interval has passed, so none runs during the
// setup that is being timed.
type spreadInterval struct {
	interval   time.Duration
	installing atomic.Bool
}

func (p *spreadInterval) NextGap(_, _ string, g *stats.RNG) time.Duration {
	if p.installing.Load() {
		return time.Duration((1 + g.Float64()) * float64(p.interval))
	}
	return p.interval
}

func sutMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench sut: want one config path")
		return 2
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench sut:", err)
		return 1
	}
	var cfg sutConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench sut: config:", err)
		return 1
	}
	instr, counted := inheritedInstrCounter()
	if cfg.Count && !counted {
		fmt.Fprintln(os.Stderr, "perfbench sut:", reexecCounted())
		return 1
	}
	if err := runSUT(cfg, instr, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench sut:", err)
		return 1
	}
	return 0
}

// runSUT builds the engine, installs the applet file, serves on a
// loopback port, announces "READY <addr>" on out and serves until
// SIGTERM or SIGINT. The benchmark normally ends it with SIGKILL.
func runSUT(cfg sutConfig, instr *instrCounter, out io.Writer) error {
	var defs []engine.Applet
	if cfg.Applets != "" {
		data, err := os.ReadFile(cfg.Applets)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &defs); err != nil {
			return fmt.Errorf("decode applets: %w", err)
		}
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer(defs, cfg.Nodes > 1)
	}

	clock := simtime.NewReal()
	// cmd/iftttd's doer is http.Client{Timeout: 30 s} on the default
	// transport. This is the same but for a larger idle pool: with the
	// default 2 idle connections per host, poll-steady opens about one
	// connection per poll (10K/s) and times loopback connection setup and
	// the host's TIME_WAIT limits rather than the engine (README.md).
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns, transport.MaxIdleConnsPerHost = 256, 64
	if tr != nil {
		transport.DialContext = tr.countDials(transport.DialContext)
	}
	var doer httpx.Doer = &http.Client{Transport: transport, Timeout: 30 * time.Second}
	if tr != nil {
		doer = tr.wrapDoer(doer)
	}
	var spread *spreadInterval
	ecfg := engine.Config{
		Clock:         clock,
		RNG:           stats.NewRNG(cfg.Seed),
		Doer:          doer,
		Shards:        cfg.Shards,
		Coalesce:      true,
		Push:          cfg.Push,
		DispatchDelay: -1,
	}
	if cfg.PollInterval > 0 {
		spread = &spreadInterval{interval: cfg.PollInterval}
		spread.installing.Store(true)
		ecfg.Poll = spread
	}
	if tr != nil {
		ecfg.Observers = []func(engine.TraceEvent){tr.observe}
	}
	var reg *obs.Registry
	if cfg.SLO {
		reg = obs.NewRegistry()
		ecfg.SLO = &slo.Config{Objective: slo.Objective{Threshold: time.Second, Ratio: 0.99}}
	}

	var (
		h       host
		engines []*engine.Engine
		stores  []*durable.Store
		openErr error
	)
	if cfg.Nodes > 1 {
		ccfg := cluster.Config{Nodes: cfg.Nodes, Engine: ecfg, Metrics: reg}
		if cfg.WALDir != "" {
			byNode := map[string]*durable.Store{}
			ccfg.Journal = func(node string) engine.Journal {
				t0 := time.Now()
				st, err := durable.Open(durable.Options{
					Dir: filepath.Join(cfg.WALDir, node), Clock: clock, Coalesce: true, Fsync: true,
				})
				if err != nil {
					openErr = errors.Join(openErr, err)
					return nil
				}
				byNode[node] = st
				stores = append(stores, st)
				if tr != nil {
					tr.openDur += time.Since(t0)
					return &timedJournal{Journal: st, t: tr}
				}
				return st
			}
			ccfg.Restore = func(node string, e *engine.Engine) error {
				st := byNode[node]
				if st == nil {
					return fmt.Errorf("node %s has no store", node)
				}
				t0 := time.Now()
				if err := st.Restore(e); err != nil {
					return err
				}
				if tr != nil {
					tr.restoreDur += time.Since(t0)
				}
				st.Start()
				return nil
			}
		}
		c := cluster.New(ccfg)
		for _, n := range c.Nodes() {
			engines = append(engines, n.Engine)
		}
		h = c
	} else {
		ecfg.Metrics = reg
		e := engine.New(ecfg)
		engines = []*engine.Engine{e}
		h = e
	}
	if openErr != nil {
		h.Stop()
		return fmt.Errorf("open durable store: %w", openErr)
	}

	if tr != nil {
		tr.installStart()
	}
	// A durable restart passes no applet file: everything comes back
	// from the WAL, and a setup always starts on an empty directory.
	for _, a := range defs {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		if err := h.Install(a); err != nil {
			h.Stop()
			return fmt.Errorf("install %s: %w", a.ID, err)
		}
		if tr != nil {
			tr.installed(time.Since(t0))
		}
	}
	if tr != nil {
		tr.installEnd(len(defs))
	}
	if spread != nil {
		spread.installing.Store(false)
	}

	handler := h.Handler()
	if tr != nil {
		handler = tr.handler(handler, h, engines, stores)
	}
	if instr != nil {
		handler = instr.serveInstructions(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Stop()
		return err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Fprintf(out, "READY %s\n", ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	select {
	case <-stop:
	case err := <-served:
		h.Stop()
		return err
	}
	srv.Close()
	h.Stop()
	var errs []error
	for _, st := range stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}
