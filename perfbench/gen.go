package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
)

// Open-loop generator. Every event has a precomputed due time; a sender
// that falls behind sends everything already due in one batch and
// records how late it ran, and T2A is measured from the due time, so a
// stalled engine cannot hide its delay behind a slowed generator.

const (
	genSenders  = 2   // goroutines, each with one keep-alive connection
	maxPushSize = 256 // events per push batch when a sender is behind
)

// generator offers a schedule's events and records per-event lateness.
type generator struct {
	sched *schedule
	pop   *population
	start time.Time
	late  []time.Duration // by event index; written by its sender only

	refused atomic.Int64 // events the engine answered 429 for
	errs    atomic.Int64 // failed or unexpected push responses
	errMu   sync.Mutex
	lastErr error
}

func newGenerator(sched *schedule, pop *population, start time.Time) *generator {
	return &generator{sched: sched, pop: pop, start: start, late: make([]time.Duration, len(sched.at))}
}

func (g *generator) fail(err error) {
	g.errs.Add(1)
	g.errMu.Lock()
	g.lastErr = err
	g.errMu.Unlock()
}

// run offers every event: send is called with a batch of due event
// indexes from one of genSenders goroutines, each owning every
// genSenders-th event. It returns when all events were sent.
func (g *generator) run(send func(sender int, events []int)) {
	var wg sync.WaitGroup
	for s := 0; s < genSenders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var batch []int
			n := len(g.sched.at)
			for i := s; i < n; {
				if d := time.Until(g.start.Add(g.sched.at[i])); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				batch = batch[:0]
				for j := i; j < n && len(batch) < maxPushSize && !g.start.Add(g.sched.at[j]).After(now); j += genSenders {
					batch = append(batch, j)
				}
				for _, j := range batch {
					g.late[j] = now.Sub(g.start.Add(g.sched.at[j]))
				}
				send(s, batch)
				i = batch[len(batch)-1] + genSenders
			}
		}()
	}
	wg.Wait()
}

// windowLate returns the lateness in ms of the events inside the
// measured window.
func (g *generator) windowLate() []float64 {
	var out []float64
	for k, d := range g.late {
		if g.sched.inWindow(k) {
			out = append(out, ms(d))
		}
	}
	return out
}

// pushEvent builds event k's wire form, stamped with its due time.
func (g *generator) pushEvent(k int) proto.PushDelivery {
	due := g.start.Add(g.sched.at[k])
	return proto.PushDelivery{
		TriggerIdentity: g.pop.keys[g.sched.ident[k]],
		Events: []proto.TriggerEvent{{
			Ingredients: map[string]string{"eid": strconv.Itoa(k)},
			Meta: proto.EventMeta{
				ID:             fmt.Sprintf("e%d", k),
				Timestamp:      due.Unix(),
				TimestampNanos: due.UnixNano(),
			},
		}},
	}
}

// pusher POSTs push batches to the engine's ingress over one keep-alive
// connection per sender.
type pusher struct {
	url     string
	clients [genSenders]*http.Client
}

func newPusher(engineURL string) *pusher {
	p := &pusher{url: engineURL + proto.PushPath}
	for i := range p.clients {
		p.clients[i] = &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		}
	}
	return p
}

func (p *pusher) close() {
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
}

// push sends one batch and returns the engine's per-event verdict.
func (p *pusher) push(sender int, g *generator, events []int) (proto.PushResponse, error) {
	batch := proto.PushBatch{Data: make([]proto.PushDelivery, len(events))}
	for i, k := range events {
		batch.Data[i] = g.pushEvent(k)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		return proto.PushResponse{}, err
	}
	resp, err := p.clients[sender].Post(p.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return proto.PushResponse{}, err
	}
	defer resp.Body.Close()
	var out proto.PushResponse
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		return out, fmt.Errorf("push: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("push: decode response: %w", err)
	}
	return out, nil
}

// sendPush is the generator's send callback for push workloads.
func (g *generator) sendPush(p *pusher) func(int, []int) {
	return func(sender int, events []int) {
		resp, err := p.push(sender, g, events)
		switch {
		case err != nil:
			g.fail(err)
		case resp.Unmatched > 0:
			g.fail(fmt.Errorf("push: %d events matched no subscription", resp.Unmatched))
		}
		g.refused.Add(int64(resp.Rejected))
	}
}

// sendPublish is the send callback for poll workloads: each event is
// published into its partner service's buffer, where the engine's next
// poll of that identity finds it.
func (g *generator) sendPublish(partners []*partner) func(int, []int) {
	return func(_ int, events []int) {
		for _, k := range events {
			id := int(g.sched.ident[k])
			n := partners[identityService(id)].svc.Publish(identitySlug(id),
				map[string]string{"key": identityField(id), "eid": strconv.Itoa(k)})
			if n != 1 {
				g.fail(fmt.Errorf("publish: event %d reached %d subscriptions, want 1", k, n))
			}
		}
	}
}
