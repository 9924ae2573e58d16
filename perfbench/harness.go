package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/simtime"
)

// server is one loopback HTTP listener owned by the benchmark process.
type server struct {
	srv *http.Server
	url string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go func() { _ = s.srv.Serve(ln) }() // returns ErrServerClosed once closed
	return s, nil
}

func (s *server) close() { s.srv.Close() }

// partner is one trigger service (the repo's service.Service) on its
// own listener. In traced runs it also records each identity's poll
// arrivals, so lateness against the fixed interval is measured where
// the polls land.
type partner struct {
	svc *service.Service
	*server

	interval time.Duration // poll interval the lateness is measured against
	mu       sync.Mutex
	lastPoll map[string]time.Time // identity → previous poll arrival
	lateMs   []float64            // inter-poll gap minus interval
}

func newPartner(idx int, traced bool, interval time.Duration) (*partner, error) {
	svc := service.New(service.Config{
		Name:       fmt.Sprintf("trig%d", idx),
		Clock:      simtime.NewReal(),
		ServiceKey: serviceKey,
	})
	for j := 0; j < slugsPerService; j++ {
		svc.RegisterTrigger(service.TriggerSpec{Slug: fmt.Sprintf("t%d", j), Match: service.FieldsMatchSubset})
	}
	p := &partner{svc: svc, interval: interval}
	h := svc.Handler()
	if traced && interval > 0 {
		p.lastPoll = make(map[string]time.Time)
		h = p.timePolls(h)
	}
	srv, err := serve(h)
	if err != nil {
		return nil, err
	}
	p.server = srv
	return p, nil
}

func (p *partner) timePolls(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, proto.TriggersPath) {
			now := time.Now()
			body, err := io.ReadAll(r.Body)
			if err == nil {
				r.Body = io.NopCloser(bytes.NewReader(body))
				var req struct {
					ID string `json:"trigger_identity"`
				}
				if json.Unmarshal(body, &req) == nil {
					p.mu.Lock()
					if prev, ok := p.lastPoll[req.ID]; ok {
						p.lateMs = append(p.lateMs, ms(now.Sub(prev)-p.interval))
					}
					p.lastPoll[req.ID] = now
					p.mu.Unlock()
				}
			}
		}
		next.ServeHTTP(w, r)
	})
}

// subscriptions counts identities the service has seen polled.
func (p *partner) subscriptions() int {
	n := 0
	for j := 0; j < slugsPerService; j++ {
		n += p.svc.Subscriptions(fmt.Sprintf("t%d", j))
	}
	return n
}

// ledger is the exactly-once check: one slot per expected (event,
// applet) action, keyed by the event's schedule index and the applet's
// position among its identity's members.
type ledger struct {
	pop      *population
	sched    *schedule
	start    time.Time // run start: event k is due at start+sched.at[k]
	base     []int64   // event k's pairs are [base[k], base[k+1])
	count    []atomic.Int32
	arrival  []atomic.Int64 // first arrival, ns after start
	received atomic.Int64   // every action the sink accepted
	stray    atomic.Int64   // actions for no expected pair
}

func newLedger(pop *population, sched *schedule) *ledger {
	l := &ledger{pop: pop, sched: sched, base: make([]int64, len(sched.at)+1)}
	for k, id := range sched.ident {
		l.base[k+1] = l.base[k] + int64(pop.members[id])
	}
	n := l.base[len(sched.at)]
	l.count = make([]atomic.Int32, n)
	l.arrival = make([]atomic.Int64, n)
	return l
}

// record books one action of applet number a for event k.
func (l *ledger) record(a, k int, at time.Time) {
	l.received.Add(1)
	if a < 0 || a >= len(l.pop.identOf) || k < 0 || k >= len(l.sched.ident) || l.pop.identOf[a] != l.sched.ident[k] {
		l.stray.Add(1)
		return
	}
	p := l.base[k] + int64(l.pop.posOf[a])
	if l.count[p].Add(1) == 1 {
		l.arrival[p].Store(int64(at.Sub(l.start)))
	}
}

// complete reports whether every expected pair has arrived.
func (l *ledger) complete() bool {
	for i := range l.count {
		if l.count[i].Load() == 0 {
			return false
		}
	}
	return true
}

// audit counts expected pairs and the failed ones: missing, executed
// more than once (each extra execution counts), and stray actions that
// match no expected pair.
func (l *ledger) audit() (attempted, missing, dup, stray int64) {
	attempted = int64(len(l.count))
	for i := range l.count {
		switch c := l.count[i].Load(); {
		case c == 0:
			missing++
		case c > 1:
			dup += int64(c - 1)
		}
	}
	return attempted, missing, dup, l.stray.Load()
}

// windowT2A returns the trigger-to-action latency in ms of every
// expected pair whose event is due inside the measured window, in due
// order; a missing action counts as +Inf.
func (l *ledger) windowT2A() []float64 {
	var out []float64
	for k, at := range l.sched.at {
		if !l.sched.inWindow(k) {
			continue
		}
		for p := l.base[k]; p < l.base[k+1]; p++ {
			v := inf
			if l.count[p].Load() > 0 {
				v = ms(time.Duration(l.arrival[p].Load()) - at)
			}
			out = append(out, v)
		}
	}
	return out
}

// sink is the action service: it acknowledges every action and books
// it in the ledger. replayOne, for self-tests, books the first action
// twice, as a sink that saw a replayed delivery would.
type sink struct {
	ledger    atomic.Pointer[ledger]
	replayOne atomic.Bool
}

var ackBody = []byte(`{"data":[{"id":"ok"}]}`)

func (s *sink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	var req proto.ActionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a, errA := strconv.Atoi(strings.TrimPrefix(req.Source.ID, "a"))
	k, errK := strconv.Atoi(req.ActionFields["eid"])
	if l := s.ledger.Load(); l != nil {
		if errA != nil || errK != nil {
			a, k = -1, -1
		}
		l.record(a, k, now)
		if s.replayOne.CompareAndSwap(true, false) {
			l.record(a, k, now)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(ackBody) // a lost ack is the engine's to retry
}
